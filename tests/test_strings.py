"""Tests for 012-strings, the Bruhat order, and the recursion oracle."""

import itertools
import math
import random

from hypothesis import given
from hypothesis import strategies as st

import reference_oracle
import reference_search
from conftest import all_triples
from twostep.algebra import Tower, y
from twostep.strings import (
    all_partitions,
    all_strings,
    bruhat_leq,
    c_form,
    chevalley,
    cocovers,
    content,
    contents_up_to,
    covers,
    dual_partition_string,
    extreme_constant,
    fmt,
    identity_string,
    jd_map,
    length,
    oracle_constant,
    parse,
    partition_to_string,
    quantum_product,
    string_to_partition,
)

strings = st.text(alphabet="012", min_size=1, max_size=8)


@given(strings)
def test_parse_fmt_round_trip(s):
    assert fmt(parse(s)) == s


@given(strings)
def test_content_counts(s):
    u = parse(s)
    a, b, n = content(u)
    assert (a, b - a, n - b) == (s.count("0"), s.count("1"), s.count("2"))
    assert n == len(s)


def test_all_strings_are_the_sorted_permutations():
    # the definition, by permutations, takes O(n!) time
    for n in range(9):
        for b in range(n + 1):
            for a in range(b + 1):
                want = sorted(set(itertools.permutations(identity_string(a, b, n))))
                assert all_strings(a, b, n) == want, (a, b, n)


def test_all_strings_multinomial():
    for a, b, n in [(1, 2, 4), (2, 3, 5), (1, 1, 3)]:
        count = math.factorial(n) // (
            math.factorial(a) * math.factorial(b - a) * math.factorial(n - b)
        )
        ss = all_strings(a, b, n)
        assert len(ss) == len(set(ss)) == count
        assert all(content(u) == (a, b, n) for u in ss)


@given(strings)
def test_length_is_inversion_count(s):
    u = parse(s)
    assert length(u) == sum(
        1 for i in range(len(u)) for j in range(i + 1, len(u)) if u[i] > u[j]
    )


def test_identity_string_has_length_zero():
    assert length(identity_string(1, 2, 4)) == 0
    assert fmt(identity_string(1, 2, 4)) == "0122"


@given(strings)
def test_covers_raise_length_by_one(s):
    u = parse(s)
    for ce in covers(u):
        assert ce.before == u
        assert content(ce.after) == content(u)
        assert length(ce.after) == length(u) + 1
        assert bruhat_leq(u, ce.after)


@given(strings)
def test_covers_cocovers_adjoint(s):
    u = parse(s)
    for ce in covers(u):
        assert any(c.before == u for c in cocovers(ce.after))
    for ce in cocovers(u):
        assert any(c.after == u for c in covers(ce.before))
        assert length(ce.before) == length(u) - 1


def test_cocovers_are_the_covers_into_w():
    # every field of every cover, for every content with n <= 8
    for a, b, n in contents_up_to(8):
        words = list(all_strings(a, b, n))
        into = {w: [] for w in words}
        for u in words:
            for ce in covers(u):
                into[ce.after].append(ce)
        for w in words:
            assert cocovers(w) == sorted(into[w], key=lambda c: (c.i, c.j))


def test_cover_delta_forms():
    # 02 -> 20 moves a 0 past a 2 at position 0: delta_0 - delta_2
    [ce] = covers(parse("02"))
    assert ce.delta_tower() == Tower.delta(0) - Tower.delta(2)
    assert ce.delta_spec() == 2
    # 012 covers: 021 (delta_1 - delta_2 at i=1), 102 (delta_0 - delta_1 at i=0)
    after = {fmt(ce.after): ce.delta_tower() for ce in covers(parse("012"))}
    assert after == {
        "021": Tower.delta(1) - Tower.delta(2),
        "102": Tower.delta(0) - Tower.delta(1),
    }


def test_bruhat_order_basics():
    lo, hi = parse("0122"), parse("2210")
    assert bruhat_leq(lo, hi) and bruhat_leq(lo, lo)
    assert not bruhat_leq(hi, lo)
    assert bruhat_leq(parse("012"), parse("021"))  # covers are <=
    # equal length and content, neither below the other
    assert not bruhat_leq(parse("102"), parse("021"))
    assert not bruhat_leq(parse("021"), parse("102"))
    # different content or length: incomparable
    assert not bruhat_leq(parse("0122"), parse("0112"))
    assert not bruhat_leq(parse("012"), parse("0122"))
    assert not bruhat_leq(parse("0122"), parse("012"))


def test_bruhat_leq_matches_cover_chains():
    # every pair of strings of length <= 5 with equal or adjacent length
    by_length = [
        [tuple(s) for s in itertools.product(range(3), repeat=n)] for n in range(6)
    ]
    pairs = 0
    for n, m in itertools.product(range(6), repeat=2):
        if abs(n - m) > 1:
            continue
        for u, w in itertools.product(by_length[n], by_length[m]):
            assert bruhat_leq(u, w) == reference_oracle.bruhat_leq(u, w), (u, w)
            pairs += 1
    assert pairs == 110_716


def test_c_form_values():
    # C_u = sum_i delta_{u_i} y_i
    u = parse("120")
    expect = (
        Tower.delta(1) * Tower.from_ypoly(y(1))
        + Tower.delta(2) * Tower.from_ypoly(y(2))
        + Tower.delta(0) * Tower.from_ypoly(y(3))
    )
    assert c_form(u) == expect


def test_extreme_constant():
    w = parse("2010")
    # inversions at positions (1,2), (1,3), (1,4), (3,4)
    expect = (
        (y(2) - y(1)) * (y(3) - y(1)) * (y(4) - y(1)) * (y(4) - y(3))
    )
    assert extreme_constant(w) == expect
    assert extreme_constant(w).degree() == length(w)


def test_oracle_base_cases():
    w = parse("120")
    assert oracle_constant(w, w, w) == extreme_constant(w)
    u = identity_string(1, 2, 3)
    assert oracle_constant(u, w, w).tuple_terms().get((), 0) == 1  # identity acts as unit
    assert not oracle_constant(w, w, u)  # w not <= u


def test_oracle_matches_unpruned_recursion():
    # every n <= 4 triple, then a seeded n = 5 sample, against the
    # recursion without the support test
    triples = [t for a, b, n in contents_up_to(4) for t in all_triples(a, b, n)]
    assert len(triples) == 5_806
    n5 = [t for a, b, n in contents_up_to(5) if n == 5 for t in all_triples(a, b, n)]
    triples += random.Random(5).sample(n5, 300)
    for u, v, w in triples:
        assert oracle_constant(u, v, w) == reference_oracle.oracle_constant(u, v, w)


def test_chevalley_terms():
    for u in all_strings(1, 2, 3):
        exp = chevalley(u)
        # diagonal term C_u - C_identity, plus one delta form per cover
        assert exp[u] == c_form(u) - c_form(identity_string(1, 2, 3))
        for ce in covers(u):
            assert ce.after in exp
        for w in exp:
            assert bruhat_leq(u, w)


class TestQuantumHelpers:
    def test_partition_round_trip(self):
        for lam in all_partitions(2, 5):
            s = partition_to_string(lam, 2, 5)
            assert content(s) == (2, 2, 5)  # Grassmannian: no 1s, a == b
            assert string_to_partition(s) == lam

    def test_dual_partition_involution(self):
        for lam in all_partitions(2, 5):
            s = partition_to_string(lam, 2, 5)
            assert dual_partition_string(dual_partition_string(s)) == s

    def test_jd_map_turns_twos_and_zeros_into_ones(self):
        # the degree-d substitution lands on the two-step content
        # (m - d, m + d, n)
        s = partition_to_string((3, 2), 2, 5)
        assert content(jd_map(s, 1)) == (1, 3, 5)
        assert fmt(jd_map(parse("20220202"), 2)) == "10121212"


def test_quantum_product_matches_enumerator():
    # one expansion per degree against one enumeration per term by the
    # backtracking reference, every pair on three Grassmannians and a
    # fixed sample on Gr(3,6)
    cases = [
        (m, n, lam, mu)
        for m, n in ((1, 3), (2, 4), (2, 5))
        for lam, mu in itertools.product(all_partitions(m, n), repeat=2)
    ]
    gr36 = list(itertools.product(all_partitions(3, 6), repeat=2))
    cases += [(3, 6, lam, mu) for lam, mu in random.Random(36).sample(gr36, 20)]
    for m, n, lam, mu in cases:
        got = quantum_product(lam, mu, m, n)
        want = quantum_product(lam, mu, m, n, constant_fn=reference_search.structure_constant)
        assert got == want, (m, n, lam, mu)
        assert list(got) == list(want), (m, n, lam, mu)
