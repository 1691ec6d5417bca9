"""Acceptance gate: the ten end-to-end criteria for the package.

Every check uses exact arithmetic (integer polynomial equality, zero
tolerance) and asserts an explicit wall-clock budget.  Criteria 3, 7
and 8 run the ``twostep verify`` suites, the one implementation of each
sweep.  Criteria 1, 2 and 4 keep the constants they compute, and
criterion 3 leaves every ``n <= 4`` oracle constant cached, so
criterion 9 (Graham positivity) can re-examine them without
recomputation.  Two resource guards follow the ten: the largest
``Gr(4,8)`` quantum product and one ``Gr(4,9)`` product, in time and
memory bounds.
"""

import json
import os
import pathlib
import subprocess
import sys
import time
from collections import Counter

from conftest import all_triples, rotate_gash

from twostep.algebra import YPoly, is_graham_positive, y
from twostep.cli import main
from twostep.mutation import (
    GashedPuzzle,
    PlacedGash,
    all_directed_gashes,
    backward_gashes,
    enumerate_flawed,
    forward_gashes,
    gash_class,
    in_backward_set,
    in_forward_set,
    opposite,
    psi_infinity,
    right_gash,
    scab_table,
    temporary_table,
)
from twostep.search import enumerate_puzzles, product_expansion
from twostep.strings import (
    all_strings,
    contents_up_to,
    extreme_constant,
    fmt,
    oracle_constant,
    parse,
    quantum_product,
)

# structure constants computed by criteria 1, 2 and 4, re-checked by
# criterion 9
_COMPUTED_CONSTANTS: list[YPoly] = []


class Budget:
    """Context manager asserting a wall-clock limit in seconds."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.limit, f"took {elapsed:.1f}s, budget {self.limit}s"


def verify(capsys, suite):
    """Run ``twostep verify --suite SUITE --max-n 4``; assert it passes
    and return the instance of each check."""
    code = main(["verify", "--suite", suite, "--max-n", "4"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["pass"]) == (0, True), report
    return [r["instance"] for r in report["checks"]]


def split_instance(instance):
    """``"Fl(1,2;4), 2926 flawed puzzles"`` -> ``("Fl(1,2;4)", 2926)``."""
    flag, count = instance.split(", ")
    return flag, int(count.split()[0])


# the flag varieties the n <= 4 sweeps cover, as the suites name them
FLAGS_UP_TO_4 = [f"Fl({a},{b};{n})" for a, b, n in contents_up_to(4)]


def test_01_worked_product_example():
    with Budget(1):
        u, v = parse("01201"), parse("10102")
        exp = product_expansion(u, v)
        expected = {
            "12010": YPoly.const(1),
            "11200": YPoly.const(1),
            "12001": y(4) - y(1),
            "10210": y(5) + y(4) - y(3) - y(1),
            "10201": (y(4) - y(3)) * (y(4) - y(1)),
        }
        assert {fmt(w): c for w, c in exp.items()} == expected
        assert sum(len(list(enumerate_puzzles(u, v, w))) for w in exp) == 6
    _COMPUTED_CONSTANTS.extend(exp.values())


def test_02_worked_quantum_example():
    with Budget(5):
        terms = quantum_product((2, 1), (3, 1), 2, 5)
        assert len(terms) == 7
        assert terms[(1, ())] == (y(5) - y(3)) * (y(2) - y(1))
        assert terms[(1, (1,))] == y(5) - y(1)
    _COMPUTED_CONSTANTS.extend(terms.values())


def test_03_oracle_equivalence(capsys):
    with Budget(120):
        instances = verify(capsys, "oracle")
    counts = [split_instance(i) for i in instances]
    assert counts == [
        (flag, len(all_strings(a, b, n)) ** 3)
        for flag, (a, b, n) in zip(FLAGS_UP_TO_4, contents_up_to(4))
    ]
    assert sum(k for _, k in counts) == 5806


def test_04_extreme_triples_have_one_puzzle():
    with Budget(30):
        for a, b, n in contents_up_to(5):
            for w in all_strings(a, b, n):
                puzzles = list(enumerate_puzzles(w, w, w))
                assert len(puzzles) == 1, fmt(w)
                c = puzzles[0].weight()
                assert c == extreme_constant(w), fmt(w)
                if c:
                    _COMPUTED_CONSTANTS.append(c)


def test_05_gash_class_fixture():
    with Budget(1):
        gashes = all_directed_gashes()
        assert len(gashes) == 336
        classes = {gash_class(g) for g in gashes}
        assert sorted(g for c in classes for g in c) == sorted(gashes)
        assert Counter(len(c) for c in classes) == {6: 24, 5: 12, 4: 12, 1: 84}
        singletons = [g for c in classes if len(c) == 1 for g in c]

        # shapes up to rotation and opposition
        def orbit(cls):
            reps = set()
            for k in range(6):
                rot = frozenset(rotate_gash(g, k) for g in cls)
                reps.add(rot)
                reps.add(frozenset(opposite(g) for g in rot))
            return min(tuple(sorted(r)) for r in reps)

        multi = sorted(
            len(c) for c in {orbit(c) for c in classes if len(c) > 1}
        )
        assert multi == [4, 5, 6, 6]
        singleton_families = {orbit(frozenset({g})) for g in singletons}
        assert len(singleton_families) == 7

        # elementwise transcription of the published class listing
        assert gash_class((1, 1, 0)) == frozenset(
            {(0, 3, 0), (1, 1, 0), (1, 6, 5), (2, 1, 3), (2, 4, 5), (3, 4, 6)}
        )
        assert gash_class((1, 2, 0)) == frozenset(
            {(0, 5, 0), (0, 6, 1), (1, 2, 0), (2, 1, 7), (2, 2, 5)}
        )
        assert gash_class((1, 4, 0)) == frozenset(
            {(0, 7, 0), (1, 4, 0), (2, 2, 3), (3, 2, 6)}
        )
        assert gash_class((1, 2, 1)) == frozenset(
            {(5, 7, 3), (0, 4, 1), (0, 5, 3), (1, 2, 1), (1, 5, 7), (2, 2, 4)}
        )
        listed = {
            (1, 6, 0), (1, 5, 1), (1, 7, 2), (1, 4, 3),
            (1, 6, 3), (1, 7, 4), (1, 7, 6),
        }
        northward_singletons = {g for g in singletons if g[0] == 1}
        assert northward_singletons == listed | {opposite(g) for g in listed}


def test_06_flaw_tables():
    with Budget(1):
        temp = temporary_table()
        assert len(temp) == 12
        orbits = {min(t, (t[2], t[0], t[1]), (t[1], t[2], t[0])) for t in temp}
        assert len(orbits) == 6
        assert all(len(res) == 3 for res in temp.values())

        scabs = scab_table()
        assert len(scabs) == 34
        assert len({min(s, (s[2], s[3], s[0], s[1])) for s in scabs}) == 17
        # each scab has a unique resolution
        assert all(isinstance(r, tuple) and len(r) == 2 for r in scabs.values())

        # right-side-up temporary pieces whose resolutions meet both the
        # forward and the backward sliding sets: place each piece at the
        # top cell and classify the right gash of each resolution
        from twostep.board import Puzzle, up_cell_edges

        F, B = forward_gashes(), backward_gashes()
        out_up = (2, 0, 4)
        edges = up_cell_edges(0, 0)
        meets_both = set()
        for t, res in temp.items():
            fwd = bwd = 0
            for k in range(3):
                gashes = frozenset(
                    PlacedGash(edges[s], out_up[s], t[s], res[k][s])
                    for s in range(3)
                    if s != k
                )
                g = right_gash(GashedPuzzle(Puzzle(1, {}), gashes)).abstract
                fwd += g in F
                bwd += g in B
            if fwd and bwd:
                assert (fwd, bwd) == (1, 1), t  # unique in each direction
                meets_both.add(t)
        assert meets_both == {
            (1, 7, 6), (3, 3, 3), (3, 7, 5), (4, 5, 6), (5, 3, 7),
            (5, 5, 5), (5, 6, 4), (7, 5, 3), (7, 6, 1),
        }


def test_07_mutation_properties_exhaustive(capsys):
    # per resolution R of every flawed puzzle: the propagation paths are
    # disjoint (phi raises otherwise), phi(R) is the resolution of exactly
    # one valid flawed puzzle with the same outer boundary, and
    # phi(phi(R)) == R
    with Budget(300):
        instances = verify(capsys, "mutation")
    counts = [split_instance(i) for i in instances]
    assert [flag for flag, _ in counts] == FLAGS_UP_TO_4
    assert sum(k for _, k in counts) == 9606


def test_08_aura_identities_exhaustive(capsys):
    # class-constant gash auras, then per n <= 4 content: border aura and
    # scab sums of every puzzle, the two weighted sums and the recursion
    # of every triple, and the aura sum of every mutation component
    with Budget(300):
        instances = verify(capsys, "aura")
    assert instances == ["all 336 directed gashes"] + FLAGS_UP_TO_4


def test_09_graham_positivity():
    # criterion 3 leaves these oracle constants cached
    constants = list(_COMPUTED_CONSTANTS)
    for a, b, n in contents_up_to(4):
        for u, v, w in all_triples(a, b, n):
            c = oracle_constant(u, v, w)
            if c:
                constants.append(c)
    assert constants
    for c in constants:
        assert is_graham_positive(c), c


def test_10_sliding_bijection():
    with Budget(120):
        domain, codomain = [], []
        for u, v, w in all_triples(1, 2, 4):
            for P in enumerate_flawed(u, v, w):
                if P.flaw_type == "temporary":
                    continue
                if in_forward_set(P):
                    domain.append(P)
                if in_backward_set(P):
                    codomain.append(P)
        images = [psi_infinity(P) for P in domain]
        assert len(set(images)) == len(domain)  # injective
        assert set(images) == set(codomain)  # surjective
        assert len(domain) == len(codomain) == 471


def _grandchild_run(argv, seconds):
    """Run ``twostep ARGV`` within ``seconds``; return the sha256 of its
    stdout and its peak resident set in MB.  A child's peak resident set
    counts its parent's memory at the fork, so a small interpreter runs
    the command in a grandchild and reports the peak of its children."""
    import twostep

    src = str(pathlib.Path(twostep.__file__).parents[1])
    script = (
        "import hashlib, resource, subprocess, sys\n"
        "done = subprocess.run([sys.executable, '-m', 'twostep.cli', *sys.argv[1:]],"
        " check=True, capture_output=True)\n"
        "print(hashlib.sha256(done.stdout).hexdigest())\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    with Budget(seconds):
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
    assert done.returncode == 0, done.stderr
    sha256, peak_kb = done.stdout.split()
    return sha256.decode(), int(peak_kb) / 1024


def test_gr48_worst_case_resources():
    # the largest Gr(4,8) quantum product, lambda = mu = (4,3,2,1)
    argv = ["quantum", "--m", "4", "--n", "8", "--lambda", "4,3,2,1", "--mu", "4,3,2,1"]
    _, peak_mb = _grandchild_run(argv, 3)
    assert peak_mb < 100, f"peak RSS {peak_mb:.0f} MB"


def test_gr49_worst_case_resources():
    # lambda = mu = (5,4,3,2) in Gr(4,9): 4.3 s and 279 MB with packed
    # monomials, 10.1 s and 433 MB with exponent tuples; the budget
    # allows for a host that slows by up to 1.7 times.  The digest of
    # stdout was recorded with exponent tuples.
    argv = ["quantum", "--m", "4", "--n", "9", "--lambda", "5,4,3,2", "--mu", "5,4,3,2"]
    sha256, peak_mb = _grandchild_run(argv, 12)
    assert sha256 == "3d7aa10433d1d6acc697310f2fb5788869053b128902d5517a11511791cf84f7"
    assert peak_mb < 350, f"peak RSS {peak_mb:.0f} MB"
