"""Unit and property tests for the exact arithmetic layer."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twostep.algebra import (
    ExponentOverflow,
    NotDivisible,
    NotInDifferenceRing,
    Tower,
    YPoly,
    exact_divide,
    format_poly,
    graham_decompose,
    is_graham_positive,
    y,
)
from twostep.strings import length

import reference_algebra as ref
from reference_algebra import Cyc12, zeta_pow
from reference_algebra import Tower as RefTower

cyc = st.builds(Cyc12, st.lists(st.integers(-9, 9), min_size=4, max_size=4))

small_int = st.integers(-5, 5)


@st.composite
def ypoly_terms(draw, max_terms=4, max_var=4, max_exp=3):
    """An ``exponent tuple -> int`` map, with unstripped monomials."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(
            draw(st.integers(0, max_exp)) for _ in range(draw(st.integers(0, max_var)))
        )
        terms[mono] = draw(small_int)
    return terms


def ypolys(**kwargs):
    return ypoly_terms(**kwargs).map(YPoly)


class TestCyc12:
    """The reference's own ``Z[zeta]``, which the differential tests trust."""

    @given(cyc, cyc, cyc)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Cyc12()

    def test_zeta_relations(self):
        z = zeta_pow(1)
        assert z * z * z * z == zeta_pow(2) - Cyc12.from_int(1)
        assert zeta_pow(6) == -Cyc12.from_int(1)
        for k in range(24):
            assert zeta_pow(k) == zeta_pow(k + 12)
        assert zeta_pow(0) == Cyc12.from_int(1)

    @given(cyc, st.integers(0, 11))
    def test_zeta_units(self, a, k):
        assert a * zeta_pow(k) * zeta_pow(12 - k) == a

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError, match="Cyc12 coefficient must be an int"):
            Cyc12((1.5, 0, 0, 0))


class TestYPoly:
    @given(ypolys(), ypolys(), ypolys())
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == YPoly.zero()

    @given(ypolys(), ypolys())
    def test_sums_drop_cancelled_terms(self, p, q):
        # as if the sum were formed whole and then filtered: the same
        # terms in the same order
        for r in (p, -q):
            want = dict(p.terms)
            for m, c in r.terms.items():
                want[m] = want.get(m, 0) + c
            got = p + r
            assert list(got.terms.items()) == [(m, c) for m, c in want.items() if c]
        assert (p + -p).terms == {}
        assert (p + q - q).terms == p.terms

    @given(ypolys(), ypolys())
    def test_degree_of_product(self, p, q):
        if p and q:
            assert (p * q).degree() == p.degree() + q.degree()

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError, match="YPoly coefficient must be an int"):
            YPoly({(1,): 1.5})

    def test_constants_hash_like_ints(self):
        # a constant equals its int, so it must hash like it
        for c in (0, 1, -1, 2**70):
            assert YPoly.const(c) == c and hash(YPoly.const(c)) == hash(c)
        assert hash(YPoly.zero()) == hash(0)
        mixed = {0, YPoly.zero(), 1, YPoly.const(1), -1, YPoly.const(-1), y(1), y(1) + 0}
        assert len(mixed) == 4
        assert {2**70: "big"}[YPoly.const(2**70)] == "big"

    def test_format_examples(self):
        assert format_poly(YPoly.zero()) == "0"
        assert format_poly(YPoly.const(1)) == "1"
        assert format_poly(y(4) - y(1)) == "-1*y1 + 1*y4"

    @given(ypolys(), st.integers(1, 4), st.integers(1, 4))
    def test_exact_divide_round_trip(self, p, i, j):
        if i == j:
            return
        l = y(i) - y(j)
        assert exact_divide(p * l, l) == p

    def test_exact_divide_failure(self):
        with pytest.raises(NotDivisible, match="nonzero remainder"):
            exact_divide(y(1), y(1) - y(2))
        with pytest.raises(NotDivisible, match="non-integral quotient"):
            exact_divide(y(2), 2 * y(2))

    @settings(derandomize=True)
    @given(ypolys(), ypolys(), st.integers(-3, 3))
    def test_results_are_canonical(self, p, q, k):
        for r in (p + q, p - q, p * q, -p, k * p, p * k):
            terms = r.tuple_terms()
            assert all(terms.values())
            assert all(m[-1] for m in terms if m)
            rebuilt = YPoly(terms)
            assert r == rebuilt and hash(r) == hash(rebuilt)

    @settings(derandomize=True)
    @given(
        ypolys(),
        st.integers(1, 4),
        st.sampled_from([2, -2]),
        st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=3, max_size=3),
    )
    def test_exact_divide_pivot_two(self, p, k, pivot, lower):
        # C_u - C_w at the delta specialization (2, 1, 0): coefficients
        # in {-2, ..., 2}, so the pivot coefficient can be 2 or -2
        l = pivot * y(k)
        for i, c in enumerate(lower[: k - 1], start=1):
            l = l + c * y(i)
        assert exact_divide(p * l, l) == p

    def test_substitute(self):
        p = (y(1) - y(2)) * y(3)
        assert p.substitute({1: y(2)}) == YPoly.zero()


def _both(terms):
    """The library ``YPoly`` and the reference one built from ``terms``."""
    return YPoly(terms), ref.YPoly(terms)


def _same_poly(new, old):
    assert new.tuple_terms() == old.terms
    assert format_poly(new) == ref.format_poly(old)


def _outcome(f, *args):
    """``f(*args)``, or the type and text of the arithmetic error it raises."""
    try:
        return f(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


class TestYPolyMatchesReference:
    """The packed ``YPoly`` against the exponent-tuple reference."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(ypoly_terms(max_exp=40), ypoly_terms(max_exp=40), small_int, st.integers(0, 3))
    def test_operations(self, s, t, n, k):
        a, ra = _both(s)
        b, rb = _both(t)
        for new, old in [
            (a, ra),
            (a + b, ra + rb),
            (a - b, ra - rb),
            (-a, -ra),
            (a * b, ra * rb),
            (a * n, ra * n),
            (n * a, n * ra),
            (a + n, ra + n),
            (n + a, n + ra),
            (a - n, ra - n),
            (n - a, n - ra),
            (a**k, ra**k),
        ]:
            _same_poly(new, old)
        assert repr(a) == repr(ra)
        assert eval(repr(a), {"YPoly": YPoly}) == a
        assert (a == n) == (ra == n)
        for x, x2, r, r2 in [(a, b, ra, rb), ((a + b) - b, a, (ra + rb) - rb, ra)]:
            assert (x == x2) == (r == r2)
            if x == x2:
                assert hash(x) == hash(x2)
        assert bool(a) == bool(ra)
        assert (a.degree(), a.nvars(), a.is_homogeneous()) == (
            ra.degree(),
            ra.nvars(),
            ra.is_homogeneous(),
        )
        terms = a.tuple_terms()
        for m in [*s, *t, ()]:
            assert terms.get(ref._strip(m), 0) == ra.coeff(m)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.one_of(
            # many monomials of one degree, which the exponent order sorts
            ypoly_terms(max_terms=10, max_var=5, max_exp=2),
            # any exponent up to 127 of any of the 64 variables
            ypoly_terms(max_terms=4, max_var=64, max_exp=127),
        )
    )
    def test_format_poly(self, s):
        new, old = _both(s)
        assert format_poly(new) == ref.format_poly(old)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        ypoly_terms(max_var=5, max_exp=20),
        ypoly_terms(max_var=5, max_exp=20),
        # C_u - C_w at the delta specialization has coefficients in -2..2
        st.lists(st.integers(-2, 2), min_size=1, max_size=5).filter(any),
    )
    def test_exact_divide(self, s, t, coeffs):
        l, rl = _both({(0,) * i + (1,): c for i, c in enumerate(coeffs)})
        a, ra = _both(s)
        b, rb = _both(t)
        for p, rp in [(a, ra), (a * l, ra * rl), (a * l + b, ra * rl + rb)]:
            new, old = _outcome(exact_divide, p, l), _outcome(ref.exact_divide, rp, rl)
            if isinstance(old, ref.YPoly):
                _same_poly(new, old)
            else:
                assert new == old

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(ypoly_terms(), st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), max_size=4))
    def test_graham_decompose(self, s, pairs):
        # a random polynomial is mostly outside the difference ring; a
        # product of differences is inside it
        d, rd = _both({(): 1})
        for i, j in pairs:
            d, rd = d * (y(j) - y(i)), rd * (ref.y(j) - ref.y(i))
        a, ra = _both(s)
        for p, rp in [(a, ra), (d, rd), (d * a, rd * ra)]:
            assert _outcome(graham_decompose, p) == _outcome(ref.graham_decompose, rp)


class TestExponentLimits:
    """An exponent past its packed field is an error, never a wrap into
    the next field."""

    @settings(derandomize=True, max_examples=200)
    @given(
        st.lists(st.integers(0, 127), max_size=4),
        st.lists(st.integers(0, 127), max_size=4),
        st.integers(0, 3),
    )
    def test_product_is_exact_or_raises(self, m1, m2, e):
        (a, ra), (b, rb) = _both({tuple(m1): 2}), _both({tuple(m2): -3})
        ta = Tower.from_ypoly(a) * Tower.zeta(e)
        rab = ra * rb
        if all(x <= 127 for m in rab.terms for x in m):
            _same_poly(a * b, rab)
            assert ta * Tower.from_ypoly(b) == Tower.from_ypoly(a * b) * Tower.zeta(e)
        else:
            with pytest.raises(ExponentOverflow):
                a * b
            with pytest.raises(ExponentOverflow):
                ta * Tower.from_ypoly(b)

    def test_constructor(self):
        assert YPoly({(0, 127): 1}).tuple_terms() == {(0, 127): 1}
        with pytest.raises(ExponentOverflow):
            YPoly({(0, 128): 1})
        with pytest.raises(ExponentOverflow):
            Tower({(None, (128,), 0): 1})

    def test_product(self):
        top = y(2) ** 127
        assert (y(1) * top * y(3)).tuple_terms() == {(1, 127, 1): 1}
        with pytest.raises(ExponentOverflow):
            top * y(2)
        with pytest.raises(ExponentOverflow):
            y(2) ** 64 * (y(1) + y(2) ** 64)

    def test_power(self):
        assert (y(3) ** 127).tuple_terms() == {(0, 0, 127): 1}
        assert (y(1) + y(2)) ** 127 == sum(
            math.comb(127, i) * y(1) ** i * y(2) ** (127 - i) for i in range(128)
        )
        with pytest.raises(ExponentOverflow):
            y(3) ** 128
        with pytest.raises(ExponentOverflow):
            (y(1) ** 2 + y(2)) ** 64

    def test_tower_product(self):
        a = Tower.from_ypoly(y(4) ** 100) * Tower.zeta(5)
        assert (a * Tower.from_ypoly(y(4) ** 27)).tuple_terms() == {
            (None, (0, 0, 0, 127), 1): -1,
            (None, (0, 0, 0, 127), 3): 1,
        }
        with pytest.raises(ExponentOverflow):
            a * Tower.from_ypoly(y(4) ** 28)
        with pytest.raises(ExponentOverflow):
            Tower.from_ypoly(y(4) ** 28) * a

    def test_negative_exponent(self):
        with pytest.raises(ValueError, match="negative exponent"):
            YPoly({(1, -1): 1})
        with pytest.raises(ValueError, match="negative exponent"):
            Tower({(None, (0, -2), 0): 1})

    def test_variable_past_the_width(self):
        assert y(64).nvars() == 64
        with pytest.raises(ValueError, match="variables are y1 .. y64"):
            y(65)
        with pytest.raises(ValueError, match="y65 is past y64"):
            YPoly({(0,) * 64 + (1,): 1})
        # trailing zeros past the width are no variable
        assert YPoly({(1,) + (0,) * 100: 2}) == 2 * y(1)

    def test_exact_divide_at_the_limit(self):
        l = y(2) - y(1)
        assert exact_divide(l * y(2) ** 126, l) == y(2) ** 126
        # the partial remainder y1^128 is exact and nonzero, not a carry
        p = y(1) ** 127 * y(2)
        with pytest.raises(NotDivisible, match="nonzero remainder"):
            exact_divide(p, l)
        with pytest.raises(NotDivisible, match="nonzero remainder"):
            ref.exact_divide(ref.YPoly({(127, 1): 1}), ref.y(2) - ref.y(1))


def test_length_is_inversion_count():
    for n in range(7):
        for u in itertools.product((0, 1, 2), repeat=n):
            pairs = itertools.combinations(u, 2)
            assert length(u) == sum(1 for a, b in pairs if a > b), u


class TestGraham:
    def test_decompose_recombines(self):
        p = (y(5) + y(4) - y(3) - y(1)) * (y(4) - y(1))
        dec = graham_decompose(p)
        total = YPoly.zero()
        for mono, c in dec.items():
            term = YPoly.const(c)
            for i, e in enumerate(mono):
                term = term * (y(i + 2) - y(i + 1)) ** e
            total = total + term
        assert total == p
        assert all(c >= 0 for c in dec.values())

    def test_positive_and_negative(self):
        assert is_graham_positive(y(3) - y(1))
        assert not is_graham_positive(y(1) - y(3))
        with pytest.raises(NotInDifferenceRing):
            graham_decompose(y(1))


class TestTower:
    def test_zeta_order(self):
        assert Tower.zeta(12) == Tower.const(1)
        assert Tower.zeta(6) == -Tower.const(1)

    def test_delta_square_rejected(self):
        with pytest.raises(ValueError):
            Tower.delta(0) * Tower.delta(1)

    @given(ypolys(), ypolys())
    def test_from_ypoly_is_ring_map(self, p, q):
        assert Tower.from_ypoly(p) * Tower.from_ypoly(q) == Tower.from_ypoly(p * q)
        assert Tower.from_ypoly(p) + Tower.from_ypoly(q) == Tower.from_ypoly(p + q)


@st.composite
def tower_terms(draw, deltas=True):
    """A flat ``(delta_key, y_monomial, e) -> int`` map with unstripped
    monomials and every zeta exponent 0..3 possible."""
    keys = draw(
        st.lists(
            st.tuples(
                st.sampled_from([None, 0, 1, 2] if deltas else [None]),
                st.lists(st.integers(0, 2), max_size=3).map(tuple),
                st.integers(0, 3),
            ),
            max_size=12,
        )
    )
    return {k: draw(st.integers(-3, 3)) for k in keys}


def _regrouped(terms):
    """The flat ``terms`` as the reference's ``(delta_key, y_monomial) -> Cyc12`` map."""
    groups = {}
    for (dk, m, e), c in terms.items():
        groups.setdefault((dk, m), [0, 0, 0, 0])[e] = c
    return {k: Cyc12(c) for k, c in groups.items()}


def _assert_canonical(t):
    for (dk, m, e), c in t.tuple_terms().items():
        assert dk in (None, 0, 1, 2)
        assert e in (0, 1, 2, 3)
        assert type(c) is int and c != 0
        assert not m or m[-1] != 0


class TestTowerMatchesReference:
    """The flat ``Tower`` against the ``Cyc12``-per-term reference."""

    def _same(self, new, ref):
        _assert_canonical(new)
        assert str(new) == str(ref)

    def test_zeta_products(self):
        # every power of zeta, read off the library's literal table, and its
        # products with each basis element, so every exponent sum 0..6 of
        # the reduction table, with and without a delta factor
        for k, d in itertools.product(range(24), (None, 0, 1, 2)):
            a, ra = Tower.zeta(k), RefTower.zeta(k)
            if d is not None:
                a, ra = a * Tower.delta(d), ra * RefTower.delta(d)
            self._same(a, ra)
            for e in range(4):
                self._same(a * Tower.zeta(e), ra * RefTower.zeta(e))
                assert a * Tower.zeta(e) * Tower.zeta(12 - k - e) == a * Tower.zeta(12 - k)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        tower_terms(),
        st.one_of(tower_terms(), tower_terms(deltas=False)),
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        small_int,
    )
    def test_operations(self, s, t, zc, n):
        a, ra = Tower(s), RefTower(_regrouped(s))
        b, rb = Tower(t), RefTower(_regrouped(t))
        z = Tower({(None, (), e): c for e, c in enumerate(zc)})
        rz = RefTower({(None, ()): Cyc12(zc)})
        for new, ref in [
            (a, ra),
            (a + b, ra + rb),
            (a - b, ra - rb),
            (-a, -ra),
            (a * z, ra * rz),
            (a * n, ra * n),
            (n * a, n * ra),
        ]:
            self._same(new, ref)
        try:
            rab = ra * rb
        except ValueError as exc:
            assert "quadratic in delta" in str(exc)
            with pytest.raises(ValueError, match="quadratic in delta"):
                a * b
        else:
            self._same(a * b, rab)
        # equality agrees with the reference, and equal values hash alike
        for x, x2, r, r2 in [
            (a, b, ra, rb),
            ((a + b) - b, a, (ra + rb) - rb, ra),
            (a * z - a * z, Tower.zero(), ra * rz - ra * rz, RefTower.zero()),
            (a * n, n * a, ra * n, n * ra),
            (a * z, a, ra * rz, ra),
        ]:
            assert (x == x2) == (r == r2)
            if x == x2:
                assert hash(x) == hash(x2)

    @settings(derandomize=True)
    @given(tower_terms())
    def test_repr_is_the_flat_constructor(self, s):
        t = Tower(s)
        assert Tower(t.tuple_terms()) == t
        assert repr(t) == f"Tower({t.tuple_terms()!r})"
        assert eval(repr(t), {"Tower": Tower}) == t

    def test_rejects_unknown_delta_key(self):
        with pytest.raises(ValueError, match="delta index must be 0, 1 or 2"):
            Tower({(7, (1,), 0): 1})

    def test_rejects_bad_exponent_and_coefficient(self):
        with pytest.raises(ValueError, match="zeta exponent must be 0, 1, 2 or 3"):
            Tower({(None, (1,), 4): 1})
        with pytest.raises(TypeError, match="Tower coefficient must be an int"):
            Tower({(None, (1,), 0): 1.5})
