"""Tests for gashes, flaws, propagation, and the mutation maps."""

import hashlib
import itertools
import json
import math
import random
from collections import Counter

import pytest

import reference_mutation
from conftest import rotate_gash
import twostep.mutation
from twostep.board import InvariantViolation, Puzzle, puzzle_from_json
from twostep.mutation import (
    FlawedPuzzle,
    GashedPuzzle,
    PlacedGash,
    all_directed_gashes,
    backward_gashes,
    component_to_dot,
    component_to_json,
    down_temporary_table,
    dual_flawed,
    enumerate_flawed,
    flawed_to_json,
    forward_gashes,
    gash_class,
    in_backward_set,
    in_forward_set,
    mutate,
    mutation_component,
    mutations,
    opposite,
    phi,
    propagate_full,
    psi,
    psi_infinity,
    recognize_flaw,
    right_gash,
    scab_positions,
    scab_table,
    temporary_table,
)
from twostep.strings import all_strings, contents_up_to, parse


def sample_flawed(a=1, b=2, n=3):
    for u, v, w in itertools.product(all_strings(a, b, n), repeat=3):
        yield from enumerate_flawed(u, v, w)


def test_gash_census():
    gs = all_directed_gashes()
    assert len(gs) == 336
    classes = {gash_class(g) for g in gs}
    hist = Counter(len(c) for c in classes)
    assert hist == {6: 24, 5: 12, 4: 12, 1: 84}
    # classes partition the gashes
    assert sorted(g for c in classes for g in c) == sorted(gs)


def test_opposite_and_rotation():
    for g in all_directed_gashes():
        assert opposite(opposite(g)) == g
        assert rotate_gash(g, 6) == g
        assert gash_class(opposite(g)) == frozenset(
            opposite(h) for h in gash_class(g)
        )


def test_singletons():
    singles = [g for g in all_directed_gashes() if len(gash_class(g)) == 1]
    assert len(singles) == 84
    assert all(gash_class(g) == frozenset({g}) for g in singles)


def test_temporary_table():
    t = temporary_table()
    assert len(t) == 12
    for tri, res in t.items():
        assert len(res) == 3
        rot = (tri[2], tri[0], tri[1])  # 120-degree rotation stays temporary
        assert rot in t
    d = down_temporary_table()
    assert set(d) == {(r, l, h) for l, r, h in t}


def test_scab_table():
    t = scab_table()
    assert len(t) == 34
    orbits = {min(s, (s[2], s[3], s[0], s[1])) for s in t}
    assert len(orbits) == 17
    for s, (side, _) in t.items():
        assert side in ("L", "R")


def test_forward_backward_sets():
    F, B = forward_gashes(), backward_gashes()
    assert len(F) == len(B)
    assert F.isdisjoint(B)
    assert {rotate_gash(g, 3) for g in F} == B


def test_phi_is_involution():
    checked = 0
    for P in sample_flawed():
        for R in P.resolutions():
            assert phi(phi(R)) == R
            checked += 1
    assert checked > 100


def test_propagation_matches_reference_n5_sample():
    # the replacement-table step against the step that scans the piece
    # lists, on the flawed puzzles of 600 random n = 5 triples
    triples = [
        (u, v, w)
        for a, b, n in contents_up_to(5)
        if n == 5
        for u, v, w in itertools.product(all_strings(a, b, n), repeat=3)
    ]
    kinds = Counter()
    for u, v, w in random.Random(12).sample(triples, 600):
        for P in enumerate_flawed(u, v, w):
            kinds[P.flaw_type] += 1
            for R in P.resolutions():
                assert phi(R) == reference_mutation.phi(R)
                for g in R.gashes:
                    assert propagate_full(R, g) == reference_mutation.propagate_full(R, g)
    # 513 gash pairs, 151 temporary pieces and 500 scabs (1,466 resolutions)
    assert min(kinds[k] for k in ("gashpair", "temporary", "scab")) >= 100


def test_propagation_builds_one_puzzle_per_move(monkeypatch):
    resolutions = [R for P in sample_flawed() for R in P.resolutions()]
    built = []
    build = twostep.mutation.Puzzle
    monkeypatch.setattr(twostep.mutation, "Puzzle", lambda *a: built.append(1) or build(*a))
    moved = stuck = 0
    for R in resolutions:
        for g in R.gashes:
            built.clear()
            G, f, path = propagate_full(R, g)
            if len(path) > 1:
                assert len(built) == 1
                moved += 1
            else:
                assert (built, G, f) == ([], R, g)
                stuck += 1
    assert moved and stuck


def test_propagation_rejects_invalid_piece_ahead():
    # the gash points north into U(0,0), whose sides would read (0, 1, 2)
    g = PlacedGash(("H", 0, 0), 1, 2, 0)
    G = GashedPuzzle(Puzzle(1, {("A", 0, 0): 0, ("B", 0, 0): 1}), frozenset({g}))
    with pytest.raises(InvariantViolation, match="invalid piece"):
        propagate_full(G, g)


def test_mutate_preserves_boundary_and_weight_degree():
    for P in sample_flawed():
        outer = P.boundary()
        for Q in mutations(P):
            assert Q.validate() == []
            assert Q.boundary() == outer


def test_mutate_is_involution_for_single_resolution_flaws():
    checked = 0
    for P in sample_flawed():
        if P.flaw_type == "temporary":
            continue
        Q = mutate(P)
        if Q.flaw_type == "temporary":
            continue  # the way back is one of three choices
        assert mutate(Q) == P
        checked += 1
    assert checked > 100


def test_mutate_rejects_choice_out_of_range():
    P = next(P for P in sample_flawed() if P.flaw_type == "temporary")
    assert len(P.resolutions()) == 3
    mutate(P, 2)
    for choice in (-1, 3):
        with pytest.raises(ValueError, match=r"temporary flaw has 3 resolution\(s\)"):
            mutate(P, choice)


def test_recognize_flaw_round_trip():
    for P in sample_flawed():
        for R in P.resolutions():
            assert recognize_flaw(R) == P


def test_mutation_component_serialization():
    P = next(iter(sample_flawed()))
    graph = mutation_component(P)
    assert P in graph
    data = json.loads(component_to_json(graph))
    assert data["nodes"]
    dot = component_to_dot(graph)
    assert dot.startswith("graph") or "graph" in dot


def test_flawed_json_round_trip():
    # the base puzzle reads back, and the flaw is recorded under its kind
    for P in itertools.islice(sample_flawed(), 200):
        data = json.loads(flawed_to_json(P))
        flaw = data.pop("flaw")
        assert puzzle_from_json(json.dumps(data)) == P.base
        assert flaw["type"] == P.flaw_type


def test_dual_flawed_involution():
    for P in itertools.islice(sample_flawed(), 200):
        D = dual_flawed(P)
        assert D.validate() == []
        assert dual_flawed(D) == P


def test_psi_moves_forward_to_backward():
    found = 0
    for P in sample_flawed(1, 2, 4):
        if P.flaw_type == "temporary" or not in_forward_set(P):
            continue
        Q = psi_infinity(P)
        assert not in_forward_set(Q)
        assert in_backward_set(Q)
        found += 1
        if found >= 25:
            break
    assert found == 25


def test_psi_requires_forward_resolution():
    for P in sample_flawed():
        if P.flaw_type != "temporary" and not in_forward_set(P):
            with pytest.raises(ValueError):
                psi(P)
            break
    else:
        pytest.fail("no flawed puzzle without forward resolution found")


def test_flawed_validate_rejects_non_cover_gashpair():
    u = parse("012")
    from twostep.search import enumerate_puzzles

    [P] = enumerate_puzzles(u, u, u)
    # outer labels equal to the inner ones: the border strings do not
    # form a Bruhat cover, so the flaw is rejected
    flaw = ("gashpair", ("u", ((1, u[0]), (2, u[1]))))
    bad = FlawedPuzzle(P, flaw)
    assert bad.validate() == ["border u strings 012 and 012 do not form a cover"]


def test_scab_positions_are_scabs():
    for P in sample_flawed():
        if P.flaw_type == "scab":
            assert P.flaw[1] in scab_positions(P.base)
            assert P.validate() == []


def test_component_output_pinned():
    # every component met in the de-duplicated n <= 3 sweep, as
    # serialized: pins the node order of component_to_json/_to_dot
    digest = hashlib.sha256()
    seen = set()
    count = 0
    for a, b, n in contents_up_to(3):
        for P in sample_flawed(a, b, n):
            if P in seen:
                continue
            comp = mutation_component(P)
            seen.update(comp)
            count += 1
            digest.update(component_to_json(comp).encode())
            digest.update(component_to_dot(comp).encode())
    assert (count, digest.hexdigest()[:16]) == (132, "5ea4ce4acb14ea55")


def _right_gash_float(G):
    """Reference: ``right_gash`` computed in floating point."""

    def midpoint(e):
        kind, x, yy = e
        if kind == "A":
            vs = ((x, yy), (x, yy + 1))
        elif kind == "B":
            vs = ((x, yy), (x + 1, yy + 1))
        else:
            vs = ((x, yy + 1), (x + 1, yy + 1))
        pts = [(vx - vy / 2.0, -vy * math.sqrt(3) / 2.0) for vx, vy in vs]
        return ((pts[0][0] + pts[1][0]) / 2, (pts[0][1] + pts[1][1]) / 2)

    g1, g2 = sorted(G.gashes)
    a1 = math.radians(30 * (2 * g1.d + 1))
    a2 = math.radians(30 * (2 * g2.d + 1))
    f = (math.cos(a1) + math.cos(a2), math.sin(a1) + math.sin(a2))
    p1, p2 = midpoint(g1.edge), midpoint(g2.edge)
    cross = f[0] * (p1[1] - p2[1]) - f[1] * (p1[0] - p2[0])
    assert abs(cross) > 1e-9
    return g1 if cross < 0 else g2


def test_right_gash_matches_float_reference():
    checked = 0
    for a, b, n in contents_up_to(3):
        for P in sample_flawed(a, b, n):
            for R in P.resolutions():
                assert right_gash(R) == _right_gash_float(R)
                checked += 1
    assert checked == 476


def test_right_gash_rejects_collinear_gashes():
    # both gashes point north, and H(1,2) lies straight south of H(0,0)
    gashes = frozenset(
        {PlacedGash(("H", 0, 0), 1, 0, 1), PlacedGash(("H", 1, 2), 1, 0, 1)}
    )
    with pytest.raises(InvariantViolation):
        right_gash(GashedPuzzle(Puzzle(3, {}), gashes))
