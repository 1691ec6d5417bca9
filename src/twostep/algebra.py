"""Exact arithmetic for puzzle computations.

Two rings live here:

- :class:`YPoly` -- sparse multivariate polynomials with integer
  coefficients in variables ``y1, ..., y64``.
- :class:`Tower` -- elements of ``Z[zeta][delta0,delta1,delta2][y]`` that
  are at most linear in the ``delta`` variables (nothing here ever
  multiplies two deltas; enforcing that catches bugs loudly), where
  ``zeta = exp(i*pi/6)`` is a primitive 12th root of unity.  A tower is
  stored flat, one integer per ``(delta, y-monomial, e)`` with ``e`` in
  0..3 indexing the basis ``1, z, z^2, z^3`` of ``Z[zeta]``, which is
  ``Z[z]`` modulo ``z^4 - z^2 + 1``.  A product of basis elements is
  ``z^(e1+e2)`` with ``e1 + e2`` in 0..6, read off ``_ZETA_POWERS``, a
  literal table of the seven reduced powers (``z^4 = z^2 - 1``,
  ``z^5 = z^3 - z``, ``z^6 = -1``).

Both key a y-monomial ``y1^a1 * y2^a2 * ...`` by one packed ``int``:
the exponent ``a_i`` fills the 8-bit field at bit ``8(i-1)``, so there
are 64 variables.  The top bit of each field is its guard bit, so an
exponent is at most 127.  Two fields of at most 127 sum to at most 254
and never carry into the next field: a monomial product is one integer
addition, and it overflowed exactly when the sum has a guard bit set.
That raises :class:`ExponentOverflow`; an exponent never wraps.  The
packing is private to this module: the constructors take exponent
tuples, and ``tuple_terms()`` gives the terms back with exponent tuples
(trailing zeros stripped), the form ``repr`` shows.

Every coefficient is an ``int``: the public constructors raise
``TypeError`` for anything else.

Also: :func:`exact_divide` (division by a linear form with an integrality
check) and :func:`graham_decompose` (rewriting in the difference basis
``y2-y1, ..., yn-y(n-1)`` to test positivity).

>>> str(Tower.zeta(6))
'(-1)'
>>> format_poly(y(4) - y(1))
'-1*y1 + 1*y4'
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = [
    "YPoly",
    "y",
    "format_poly",
    "exact_divide",
    "NotDivisible",
    "ExponentOverflow",
    "NotInDifferenceRing",
    "graham_decompose",
    "is_graham_positive",
    "Tower",
    "NVARS",
]


# ---------------------------------------------------------------------------
# Packed monomials

Mono = tuple[int, ...]  # exponent vector, trailing zeros stripped

NVARS = 64  # the variables y1 .. y64, one byte each
_MAX_EXP = 127  # the top bit of each byte is its guard bit
_GUARD = int.from_bytes(b"\x80" * NVARS, "little")
_OVERFLOW = f"an exponent is over {_MAX_EXP}"


class ExponentOverflow(OverflowError):
    """Raised when an exponent would reach 128, the guard bit of its field."""


def _pack(mono: Iterable[int]) -> int:
    """The packed key of the exponent vector ``mono``."""
    key = 0
    for i, e in enumerate(mono):
        if e < 0:
            raise ValueError("negative exponent")
        if e > _MAX_EXP:
            raise ExponentOverflow(f"exponent {e} of y{i + 1} is over {_MAX_EXP}")
        if e:
            if i >= NVARS:
                raise ValueError(f"y{i + 1} is past y{NVARS}")
            key |= e << (8 * i)
    return key


def _unpack(key: int) -> Mono:
    """The exponent vector of the packed key ``key``."""
    return tuple(key.to_bytes(NVARS, "little").rstrip(b"\0"))


def _degree(key: int) -> int:
    """The total degree of the packed key ``key``."""
    return sum(key.to_bytes(NVARS, "little"))


# ---------------------------------------------------------------------------
# Sparse integer polynomials in y1, ..., y64


class YPoly:
    """A sparse polynomial over ``Z`` in variables ``y1, ..., y64``.

    Stored as a map ``terms`` from packed monomials to nonzero integer
    coefficients (the packing is in the module docstring).  The
    constructor takes exponent tuples, ``tuple_terms()`` gives them
    back, and ``repr`` shows that form.  An exponent is at most 127: a
    larger one in the constructor, ``*`` or ``**`` raises
    :class:`ExponentOverflow`.

    >>> p = (y(4) - y(1)) * (y(4) - y(3))
    >>> p.degree()
    2
    >>> format_poly(p)
    '1*y1*y3 - 1*y1*y4 - 1*y3*y4 + 1*y4^2'
    >>> p.tuple_terms()[(0, 0, 0, 2)]
    1
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Iterable[int], int]):
        """Build from ``exponent tuple -> int`` terms, summing repeated
        monomials."""
        d: dict[int, int] = {}
        for m, c in terms.items():
            if not isinstance(c, int):
                raise TypeError(f"YPoly coefficient must be an int, not {type(c).__name__}")
            key = _pack(m)
            d[key] = d.get(key, 0) + int(c)
        self.terms = {m: c for m, c in d.items() if c}

    @classmethod
    def _canonical(cls, terms: Mapping[int, int]) -> "YPoly":
        """Wrap packed ``terms``, dropping zero coefficients; the ring
        operations that can cancel build their results here."""
        return cls._wrap({m: c for m, c in terms.items() if c})

    @classmethod
    def _wrap(cls, terms: dict[int, int]) -> "YPoly":
        """Wrap packed ``terms`` that hold no zero coefficient, without a
        copy."""
        p = cls.__new__(cls)
        p.terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "YPoly":
        return YPoly._canonical({})

    @staticmethod
    def const(n: int) -> "YPoly":
        return YPoly({(): n})

    @staticmethod
    def combination(parts: Iterable[tuple[int, "YPoly"]]) -> "YPoly":
        """The sum of ``k * p`` over the ``(k, p)`` pairs of ``parts``,
        built in one dict.

        >>> YPoly.combination([(2, y(1)), (-1, y(1) - y(2))]) == y(1) + y(2)
        True
        """
        d: dict[int, int] = {}
        for k, p in parts:
            for m, c in p.terms.items():
                d[m] = d.get(m, 0) + k * c
        return YPoly._canonical(d)

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = YPoly.const(other)
        return isinstance(other, YPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        # a constant hashes like the int it equals
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "YPoly":
        return YPoly._wrap({m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "YPoly":
        if isinstance(other, int):
            other = YPoly.const(other)
        # a coefficient that reaches 0 leaves at once: each monomial of
        # ``other`` is visited once, so none comes back
        d = dict(self.terms)
        for m, c in other.terms.items():
            c += d.get(m, 0)
            if c:
                d[m] = c
            else:
                del d[m]
        return YPoly._wrap(d)

    __radd__ = __add__

    def __sub__(self, other) -> "YPoly":
        if isinstance(other, int):
            other = YPoly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "YPoly":
        return (-self) + other

    def __mul__(self, other) -> "YPoly":
        if isinstance(other, int):
            if not other:
                return YPoly.zero()
            return YPoly._wrap({m: other * c for m, c in self.terms.items()})
        d: dict[int, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                if m & _GUARD:
                    raise ExponentOverflow(_OVERFLOW)
                d[m] = d.get(m, 0) + c1 * c2
        return YPoly._canonical(d)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "YPoly":
        if k < 0:
            raise ValueError("negative power")
        result = YPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- inspection --------------------------------------------------------

    def tuple_terms(self) -> dict[Mono, int]:
        """The terms with exponent tuples (trailing zeros stripped) as keys."""
        return {_unpack(m): c for m, c in self.terms.items()}

    def degree(self) -> int:
        """Total degree (-1 for the zero polynomial)."""
        return max(map(_degree, self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        return len(set(map(_degree, self.terms))) <= 1

    def nvars(self) -> int:
        # a key's highest variable is its highest nonzero byte
        return (max(self.terms, default=0).bit_length() + 7) // 8

    def substitute(self, values: Mapping[int, "YPoly"]) -> "YPoly":
        """Substitute ``y_i -> values[i]`` (1-based; missing i stays ``y_i``)."""
        out = YPoly.zero()
        for m, c in self.tuple_terms().items():
            term = YPoly.const(c)
            for i, e in enumerate(m, start=1):
                if not e:
                    continue
                term = term * (values.get(i, y(i)) ** e)
            out = out + term
        return out

    def __repr__(self) -> str:
        return f"YPoly({self.tuple_terms()!r})"

    def __str__(self) -> str:
        return format_poly(self)


def y(i: int) -> YPoly:
    """The variable ``y_i`` (1-based, at most ``y64``).

    >>> str(y(2))
    '1*y2'
    """
    if not 1 <= i <= NVARS:
        raise ValueError(f"variables are y1 .. y{NVARS}")
    return YPoly._canonical({1 << (8 * (i - 1)): 1})


# -- canonical text form ----------------------------------------------------

# each byte to 255 minus itself: the complemented exponent bytes sort
# ascending where the exponents sort descending
_COMPLEMENT = bytes(range(255, -1, -1))


def _print_key(key: int) -> tuple[int, bytes]:
    """The sort key of the packed monomial ``key`` in print order: by
    total degree, then by the exponents of ``y1, y2, ...`` descending."""
    b = key.to_bytes(NVARS, "little")
    return (sum(b), b.translate(_COMPLEMENT))


def format_poly(p: YPoly) -> str:
    """Canonical text form: graded-lex ordered sum of ``c*y1^a1*...`` terms.

    >>> format_poly(y(5) + y(4) - y(3) - y(1))
    '-1*y1 - 1*y3 + 1*y4 + 1*y5'
    >>> format_poly(YPoly.zero())
    '0'
    """
    terms = p.terms
    if not terms:
        return "0"
    parts = []
    for m in sorted(terms, key=_print_key):
        factors = [str(terms[m])]
        for i, e in enumerate(_unpack(m), start=1):
            if e == 1:
                factors.append(f"y{i}")
            elif e > 1:
                factors.append(f"y{i}^{e}")
        parts.append("*".join(factors))
    out = " + ".join(parts)
    return out.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# Exact division by a linear form


class NotDivisible(ArithmeticError):
    """Raised when exact division fails (remainder or non-integrality)."""


def exact_divide(p: YPoly, l: YPoly) -> YPoly:
    """Divide ``p`` by the linear form ``l``, asserting exactness.

    ``l`` must be a nonzero homogeneous linear form ``sum c_i y_i``.
    The quotient is computed by synthetic division in the highest variable
    ``y_k`` of ``l``, in integers: each quotient coefficient is a
    ``divmod`` by ``c_k``, and a nonzero remainder of that ``divmod``
    (a non-integral quotient) or of the whole division raises
    :class:`NotDivisible`.

    A quotient monomial is the dividend's with its ``y_k`` field lowered
    by one, a subtraction of the packed ``y_k``.  No field can carry
    into the next: a field starts at most at 127, and each of the at
    most 127 rows adds at most 1 to it.  An exact quotient divides
    ``p``, so its exponents are at most 127.

    >>> exact_divide((y(4) - y(1)) * (y(4) - y(3)), y(4) - y(1)) == y(4) - y(3)
    True
    >>> exact_divide(YPoly.zero(), y(2) - y(1)) == YPoly.zero()
    True
    >>> exact_divide(y(1) * y(2), y(1) + y(2))  # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
        ...
    NotDivisible: nonzero remainder
    """
    if not l or l.degree() != 1 or not l.is_homogeneous():
        raise ValueError("divisor must be a nonzero homogeneous linear form")
    if not p:
        return YPoly.zero()
    pivot = max(l.terms)  # the packed y_k, the highest variable in l
    c_pivot = l.terms[pivot]
    rest = [(m, c) for m, c in l.terms.items() if m != pivot]
    shift = pivot.bit_length() - 1

    # the terms of p grouped by their exponent of y_k
    rows: dict[int, dict[int, int]] = {}
    for m, c in p.terms.items():
        rows.setdefault((m >> shift) & 0xFF, {})[m] = c
    out: dict[int, int] = {}
    for e in range(max(rows), 0, -1):
        below = rows.setdefault(e - 1, {})
        for m, c in rows.pop(e, {}).items():
            if not c:
                continue
            q, r = divmod(c, c_pivot)
            if r:
                raise NotDivisible("non-integral quotient")
            qm = m - pivot
            out[qm] = q
            # subtract q * y^qm * rest, whose terms have y_k-degree e - 1
            for m2, c2 in rest:
                mm = qm + m2
                below[mm] = below.get(mm, 0) - q * c2
    if any(rows[0].values()):
        raise NotDivisible("nonzero remainder")
    return YPoly._canonical(out)


# ---------------------------------------------------------------------------
# Difference-basis decomposition (positivity test)


class NotInDifferenceRing(ArithmeticError):
    """Raised when a polynomial is not a polynomial in y(i+1) - y(i)."""


def graham_decompose(p: YPoly) -> dict[Mono, int]:
    """Rewrite ``p`` in monomials of ``z_i = y_(i+1) - y_i``.

    Returns the coefficient map (z-exponent vector -> integer).  Raises
    :class:`NotInDifferenceRing` if ``p`` is not expressible, i.e. not
    invariant under translating all ``y_i`` simultaneously.

    >>> dec = graham_decompose(y(4) - y(1))
    >>> sorted(dec.items())
    [((0, 0, 1), 1), ((0, 1), 1), ((1,), 1)]
    >>> all(c >= 0 for c in dec.values())
    True
    >>> graham_decompose(y(1) - y(2))
    {(1,): -1}
    >>> graham_decompose(y(1))  # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
        ...
    NotInDifferenceRing: not a polynomial in the differences
    """
    n = p.nvars()
    # substitute y_1 -> 0, y_i -> z_1 + ... + z_(i-1); the z_t live in the
    # same sparse representation (variable t).
    subs = {1: YPoly.zero()}
    acc = YPoly.zero()
    for i in range(2, n + 1):
        acc = acc + y(i - 1)  # z_(i-1) as variable i-1
        subs[i] = acc
    q = p.substitute(subs)
    # round trip: z_t -> y_(t+1) - y_t must recover p
    back = {t: y(t + 1) - y(t) for t in range(1, n)}
    if q.substitute(back) != p:
        raise NotInDifferenceRing("not a polynomial in the differences")
    return q.tuple_terms()


def is_graham_positive(p: YPoly) -> bool:
    """Whether ``p`` has nonnegative coefficients in the difference basis.

    >>> is_graham_positive((y(4) - y(3)) * (y(4) - y(1)))
    True
    >>> is_graham_positive(y(1) - y(2))
    False
    """
    return all(c >= 0 for c in graham_decompose(p).values())


# ---------------------------------------------------------------------------
# The delta-linear tower ring

DeltaKey = int | None  # None = delta-free part; 0/1/2 = coefficient of delta_i
FlatKey = tuple[DeltaKey, int, int]  # (delta_key, packed y-monomial, zeta exponent 0..3)

# zeta^k for k = 0..6 (the exponent sums of two basis elements) in the
# basis 1, z, z^2, z^3, reduced by z^4 = z^2 - 1
_ZETA_POWERS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, 0, 1, 0),
    (0, -1, 0, 1),
    (-1, 0, 0, 0),
)
# the same powers as (exponent, coefficient) pairs, for products
_ZETA_REDUCE = tuple(tuple((e, c) for e, c in enumerate(p) if c) for p in _ZETA_POWERS)
_ZETA_NAMES = ("", "z", "z^2", "z^3")


class Tower:
    """An element of ``Z[zeta][delta][y]`` of degree at most 1 in the deltas.

    Stored flat as a map ``(delta_key, y_monomial, e) -> int``: the
    integer coefficient of ``zeta^e * delta * y^monomial``, where
    ``delta_key`` is ``None`` for the delta-free part or ``i`` for
    ``delta_i``, the monomial is packed as in :class:`YPoly` (so
    :meth:`from_ypoly` copies keys and a product adds them), ``e`` is
    0..3 (the basis ``1, z, z^2, z^3``) and no coefficient is zero.  The
    constructor takes the same form with exponent tuples,
    ``tuple_terms()`` gives it back, and ``repr`` shows it.  A product
    reduces ``zeta^(e1+e2)`` for ``e1 + e2`` in 4..6 through
    ``_ZETA_REDUCE``, and raises :class:`ExponentOverflow` for a
    y-exponent over 127.  ``str`` groups the terms by delta and
    monomial.  Multiplying two elements that both carry deltas raises
    (the calculus never needs it).

    >>> a = Tower.delta(0) * Tower.zeta(3)
    >>> b = Tower.delta(1) * Tower.zeta(3)
    >>> (a - b) + (b - a) == Tower.zero()
    True
    >>> str(Tower.zeta(2) * Tower.zeta(3) * Tower.delta(2))
    '(-z + z^3)*d2'
    >>> Tower({(2, (0, 1, 0), 1): -1, (2, (0, 1), 3): 1})
    Tower({(2, (0, 1), 1): -1, (2, (0, 1), 3): 1})
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[DeltaKey, Iterable[int], int], int]):
        """Build from flat ``(delta_key, exponent tuple, e) -> int``
        terms, summing repeated keys."""
        d: dict[FlatKey, int] = {}
        for (dk, m, e), c in terms.items():
            if dk not in (None, 0, 1, 2):
                raise ValueError("delta index must be 0, 1 or 2")
            if e not in (0, 1, 2, 3):
                raise ValueError("zeta exponent must be 0, 1, 2 or 3")
            if not isinstance(c, int):
                raise TypeError(f"Tower coefficient must be an int, not {type(c).__name__}")
            key = (dk, _pack(m), e)
            d[key] = d.get(key, 0) + int(c)
        self.terms = {k: c for k, c in d.items() if c}

    @classmethod
    def _canonical(cls, terms: dict[FlatKey, int]) -> "Tower":
        """Wrap flat ``terms`` that are already canonical (packed
        monomials, ``e`` in 0..3, no zero coefficient); the ring
        operations build their results here."""
        t = object.__new__(cls)
        t.terms = terms
        return t

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Tower":
        return Tower._canonical({})

    @staticmethod
    def const(n: int) -> "Tower":
        return Tower._canonical({(None, 0, 0): n} if n else {})

    @staticmethod
    def zeta(k: int) -> "Tower":
        """``zeta^k``, read off ``_ZETA_POWERS``; ``zeta^(k+6) = -zeta^k``.

        >>> z, p = Tower.zeta(1), Tower.const(1)
        >>> for k in range(7):
        ...     print(k, p, p == Tower.zeta(k))
        ...     p = p * z
        0 (1) True
        1 (z) True
        2 (z^2) True
        3 (z^3) True
        4 (-1 + z^2) True
        5 (-z + z^3) True
        6 (-1) True
        """
        k %= 12
        sign = -1 if k >= 6 else 1
        return Tower._canonical(
            {(None, 0, e): sign * c for e, c in enumerate(_ZETA_POWERS[k % 6]) if c}
        )

    @staticmethod
    def delta(i: int) -> "Tower":
        if i not in (0, 1, 2):
            raise ValueError("delta index must be 0, 1 or 2")
        return Tower._canonical({(i, 0, 0): 1})

    @staticmethod
    def from_ypoly(p: YPoly) -> "Tower":
        return Tower._canonical({(None, m, 0): c for m, c in p.terms.items()})

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tower) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "Tower":
        return Tower._canonical({k: -c for k, c in self.terms.items()})

    def __add__(self, other: "Tower") -> "Tower":
        d = dict(self.terms)
        for k, c in other.terms.items():
            s = d.get(k, 0) + c
            if s:
                d[k] = s
            else:
                del d[k]
        return Tower._canonical(d)

    def __sub__(self, other: "Tower") -> "Tower":
        d = dict(self.terms)
        for k, c in other.terms.items():
            s = d.get(k, 0) - c
            if s:
                d[k] = s
            else:
                del d[k]
        return Tower._canonical(d)

    def __mul__(self, other) -> "Tower":
        if isinstance(other, int):
            if not other:
                return Tower.zero()
            return Tower._canonical({k: c * other for k, c in self.terms.items()})
        d: dict[FlatKey, int] = {}
        for (dk1, m1, e1), c1 in self.terms.items():
            for (dk2, m2, e2), c2 in other.terms.items():
                if dk1 is not None and dk2 is not None:
                    raise ValueError("product would be quadratic in delta")
                dk = dk1 if dk1 is not None else dk2
                m = m1 + m2
                if m & _GUARD:
                    raise ExponentOverflow(_OVERFLOW)
                c = c1 * c2
                for e, z in _ZETA_REDUCE[e1 + e2]:
                    key = (dk, m, e)
                    d[key] = d.get(key, 0) + c * z
        return Tower._canonical({k: c for k, c in d.items() if c})

    __rmul__ = __mul__

    def tuple_terms(self) -> dict[tuple[DeltaKey, Mono, int], int]:
        """The flat terms with exponent tuples (trailing zeros stripped)
        as monomials."""
        return {(dk, _unpack(m), e): c for (dk, m, e), c in self.terms.items()}

    def __repr__(self) -> str:
        return f"Tower({self.tuple_terms()!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        groups: dict[tuple[DeltaKey, int], list[int]] = {}
        for (dk, m, e), c in self.terms.items():
            groups.setdefault((dk, m), [0, 0, 0, 0])[e] = c
        parts = []
        for dk, m in sorted(groups, key=lambda k: (-1 if k[0] is None else k[0], _print_key(k[1]))):
            coeff = " + ".join(
                str(c) if e == 0 else {1: "", -1: "-"}.get(c, f"{c}*") + _ZETA_NAMES[e]
                for e, c in enumerate(groups[dk, m])
                if c
            ).replace("+ -", "- ")
            mono = "*".join(
                f"y{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(_unpack(m), start=1)
                if e
            )
            head = f"({coeff})"
            if dk is not None:
                head += f"*d{dk}"
            if mono:
                head += f"*{mono}"
            parts.append(head)
        return " + ".join(parts)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
