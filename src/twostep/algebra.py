"""Exact arithmetic for puzzle computations.

Three rings live here:

- :class:`Cyc12` -- the ring ``Z[zeta]`` with ``zeta = exp(i*pi/6)`` a
  primitive 12th root of unity, represented modulo the minimal polynomial
  ``x^4 - x^2 + 1``.
- :class:`YPoly` -- sparse multivariate polynomials with integer
  coefficients in variables ``y1, y2, ...``.
- :class:`Tower` -- elements of ``Z[zeta][delta0,delta1,delta2][y]`` that
  are at most linear in the ``delta`` variables (nothing here ever
  multiplies two deltas; enforcing that catches bugs loudly).  A tower
  is stored flat, one integer per ``(delta, y-monomial, e)`` with ``e``
  in 0..3 indexing the basis ``1, z, z^2, z^3``, so its ring operations
  build no :class:`Cyc12`.  A product of basis elements is ``z^(e1+e2)``
  with ``e1 + e2`` in 0..6; the seven reduced forms are a table read
  off :func:`zeta_pow` at import (``z^4 = z^2 - 1``, ``z^5 = z^3 - z``,
  ``z^6 = -1``).

Every coefficient is an ``int``: the public constructors raise
``TypeError`` for anything else.

Also: :func:`exact_divide` (division by a linear form with an integrality
check) and :func:`graham_decompose` (rewriting in the difference basis
``y2-y1, ..., yn-y(n-1)`` to test positivity).

>>> (zeta_pow(6)).coeffs
(-1, 0, 0, 0)
>>> format_poly(y(4) - y(1))
'-1*y1 + 1*y4'
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = [
    "Cyc12",
    "zeta_pow",
    "YPoly",
    "y",
    "format_poly",
    "exact_divide",
    "NotDivisible",
    "NotInDifferenceRing",
    "graham_decompose",
    "is_graham_positive",
    "Tower",
]


# ---------------------------------------------------------------------------
# Z[zeta_12]


class Cyc12:
    """An element ``c0 + c1*z + c2*z^2 + c3*z^3`` of ``Z[z]/(z^4 - z^2 + 1)``.

    ``z`` is the primitive 12th root of unity ``exp(i*pi/6)``; in
    particular ``z^6 = -1`` and ``z^12 = 1``.

    >>> zeta_pow(4) == Cyc12((-1, 0, 1, 0))
    True
    >>> zeta_pow(3) * zeta_pow(9)
    Cyc12((1, 0, 0, 0))
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = (0, 0, 0, 0)):
        c = tuple(coeffs)
        if len(c) != 4:
            raise ValueError("Cyc12 needs exactly 4 coefficients")
        for x in c:
            if not isinstance(x, int):
                raise TypeError(f"Cyc12 coefficient must be an int, not {type(x).__name__}")
        self.coeffs = tuple(int(x) for x in c)

    @classmethod
    def _canonical(cls, coeffs: tuple[int, int, int, int]) -> "Cyc12":
        """Wrap a 4-tuple of ints; the ring operations build their
        results here."""
        z = object.__new__(cls)
        z.coeffs = coeffs
        return z

    @staticmethod
    def from_int(n: int) -> "Cyc12":
        return Cyc12((n, 0, 0, 0))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Cyc12.from_int(other)
        return isinstance(other, Cyc12) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Cyc12":
        return Cyc12._canonical(tuple(-x for x in self.coeffs))

    def __add__(self, other) -> "Cyc12":
        if isinstance(other, int):
            other = Cyc12.from_int(other)
        return Cyc12._canonical(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other) -> "Cyc12":
        return self + (-other if isinstance(other, Cyc12) else Cyc12.from_int(-other))

    def __mul__(self, other) -> "Cyc12":
        if isinstance(other, int):
            return Cyc12._canonical(tuple(other * x for x in self.coeffs))
        # convolve to degree 6, then reduce with z^k = z^(k-2) - z^(k-4)
        prod = [0] * 7
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        for k in range(6, 3, -1):
            if prod[k]:
                prod[k - 2] += prod[k]
                prod[k - 4] -= prod[k]
                prod[k] = 0
        return Cyc12._canonical(tuple(prod[:4]))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"Cyc12({self.coeffs!r})"

    def __str__(self) -> str:
        if not self:
            return "0"
        names = ["", "z", "z^2", "z^3"]
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(names[k])
            elif c == -1:
                parts.append("-" + names[k])
            else:
                parts.append(f"{c}*{names[k]}")
        return " + ".join(parts).replace("+ -", "- ")


_ZETA = Cyc12((0, 1, 0, 0))
_ONE = Cyc12((1, 0, 0, 0))

_ZETA_POWS: list[Cyc12] = []
_p = _ONE
for _ in range(12):
    _ZETA_POWS.append(_p)
    _p = _p * _ZETA
del _p


def zeta_pow(k: int) -> Cyc12:
    """The reduced representative of ``zeta^k``.

    >>> zeta_pow(0) == 1
    True
    >>> zeta_pow(6) == -1
    True
    >>> zeta_pow(3) + zeta_pow(7) + zeta_pow(11)
    Cyc12((0, 0, 0, 0))
    """
    return _ZETA_POWS[k % 12]


# ---------------------------------------------------------------------------
# Sparse integer polynomials in y1, y2, ...

Mono = tuple[int, ...]  # exponent vector, trailing zeros stripped


def _strip(mono: Iterable[int]) -> Mono:
    m = list(mono)
    while m and m[-1] == 0:
        m.pop()
    return tuple(m)


class YPoly:
    """A sparse polynomial over ``Z`` in variables ``y1, y2, ...``.

    Stored as a map from exponent vectors (trailing zeros stripped) to
    nonzero integer coefficients.

    >>> p = (y(4) - y(1)) * (y(4) - y(3))
    >>> p.degree()
    2
    >>> format_poly(p)
    '1*y1*y3 - 1*y1*y4 - 1*y3*y4 + 1*y4^2'
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        d: dict[Mono, int] = {}
        if terms:
            for m, c in terms.items():
                if not isinstance(c, int):
                    raise TypeError(f"YPoly coefficient must be an int, not {type(c).__name__}")
                if c:
                    d[_strip(m)] = d.get(_strip(m), 0) + int(c)
        self.terms = {m: c for m, c in d.items() if c}

    @classmethod
    def _canonical(cls, terms: Mapping[Mono, int]) -> "YPoly":
        """Wrap ``terms`` whose monomials are already stripped, dropping
        zero coefficients; the ring operations build their results here."""
        p = cls.__new__(cls)
        p.terms = {m: c for m, c in terms.items() if c}
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(n: int) -> "YPoly":
        return YPoly({(): n}) if n else YPoly()

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = YPoly.const(other)
        return isinstance(other, YPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "YPoly":
        return YPoly._canonical({m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "YPoly":
        if isinstance(other, int):
            other = YPoly.const(other)
        d = dict(self.terms)
        for m, c in other.terms.items():
            d[m] = d.get(m, 0) + c
        return YPoly._canonical(d)

    __radd__ = __add__

    def __sub__(self, other) -> "YPoly":
        if isinstance(other, int):
            other = YPoly.const(other)
        return self + (-other)

    def __rsub__(self, other) -> "YPoly":
        return (-self) + other

    def __mul__(self, other) -> "YPoly":
        if isinstance(other, int):
            return YPoly._canonical({m: other * c for m, c in self.terms.items()})
        d: dict[Mono, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
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
            base = base * base
            k >>= 1
        return result

    # -- inspection --------------------------------------------------------

    def degree(self) -> int:
        """Total degree (-1 for the zero polynomial)."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def nvars(self) -> int:
        return max((len(m) for m in self.terms), default=0)

    def coeff(self, mono: Iterable[int]) -> int:
        return self.terms.get(_strip(mono), 0)

    def substitute(self, values: Mapping[int, "YPoly"]) -> "YPoly":
        """Substitute ``y_i -> values[i]`` (1-based; missing i stays ``y_i``)."""
        out = YPoly()
        for m, c in self.terms.items():
            term = YPoly.const(c)
            for i, e in enumerate(m, start=1):
                if not e:
                    continue
                term = term * (values.get(i, y(i)) ** e)
            out = out + term
        return out

    def __repr__(self) -> str:
        return f"YPoly({self.terms!r})"

    def __str__(self) -> str:
        return format_poly(self)


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if len(m1) < len(m2):
        m1, m2 = m2, m1
    if not m2:
        return m1
    padded = list(m2) + [0] * (len(m1) - len(m2))
    return tuple(a + b for a, b in zip(m1, padded))


def y(i: int) -> YPoly:
    """The variable ``y_i`` (1-based).

    >>> str(y(2))
    '1*y2'
    """
    if i < 1:
        raise ValueError("variables are 1-based")
    return YPoly({(0,) * (i - 1) + (1,): 1})


# -- canonical text form ----------------------------------------------------

def _mono_key(m: Mono) -> tuple:
    # graded-lex with y1 before y2 before ...
    return (sum(m), tuple(-e for e in m))


def format_poly(p: YPoly) -> str:
    """Canonical text form: graded-lex ordered sum of ``c*y1^a1*...`` terms.

    >>> format_poly(y(5) + y(4) - y(3) - y(1))
    '-1*y1 - 1*y3 + 1*y4 + 1*y5'
    >>> format_poly(YPoly())
    '0'
    """
    if not p.terms:
        return "0"
    parts = []
    for m in sorted(p.terms, key=_mono_key):
        c = p.terms[m]
        factors = [str(c)]
        for i, e in enumerate(m, start=1):
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

    >>> exact_divide((y(4) - y(1)) * (y(4) - y(3)), y(4) - y(1)) == y(4) - y(3)
    True
    >>> exact_divide(YPoly(), y(2) - y(1)) == YPoly()
    True
    >>> exact_divide(y(1) * y(2), y(1) + y(2))  # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
        ...
    NotDivisible: nonzero remainder
    """
    if not l or l.degree() != 1 or not l.is_homogeneous():
        raise ValueError("divisor must be a nonzero homogeneous linear form")
    if not p:
        return YPoly()
    k = max(len(m) for m in l.terms)  # highest variable index in l
    c_pivot = l.terms[(0,) * (k - 1) + (1,)]
    rest = [(m, c) for m, c in l.terms.items() if len(m) < k]

    # the terms of p grouped by their exponent of y_k
    rows: dict[int, dict[Mono, int]] = {}
    for m, c in p.terms.items():
        rows.setdefault(m[k - 1] if len(m) >= k else 0, {})[m] = c
    out: dict[Mono, int] = {}
    for e in range(max(rows), 0, -1):
        below = rows.setdefault(e - 1, {})
        for m, c in rows.pop(e, {}).items():
            if not c:
                continue
            q, r = divmod(c, c_pivot)
            if r:
                raise NotDivisible("non-integral quotient")
            qm = _strip(m[: k - 1] + (e - 1,) + m[k:])
            out[qm] = q
            # subtract q * y^qm * rest, whose terms have y_k-degree e - 1
            for m2, c2 in rest:
                mm = _mono_mul(qm, m2)
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
    subs = {1: YPoly()}
    acc = YPoly()
    for i in range(2, n + 1):
        acc = acc + y(i - 1)  # z_(i-1) as variable i-1
        subs[i] = acc
    q = p.substitute(subs)
    # round trip: z_t -> y_(t+1) - y_t must recover p
    back = {t: y(t + 1) - y(t) for t in range(1, n)}
    if q.substitute(back) != p:
        raise NotInDifferenceRing("not a polynomial in the differences")
    return dict(q.terms)


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
FlatKey = tuple[DeltaKey, Mono, int]  # (delta_key, y_monomial, zeta exponent 0..3)

# zeta^k for k = 0..6 (the exponent sums of two basis elements) as
# (exponent, coefficient) pairs in the basis 1, z, z^2, z^3
_ZETA_REDUCE = tuple(
    tuple((e, c) for e, c in enumerate(zeta_pow(k).coeffs) if c) for k in range(7)
)


class Tower:
    """An element of ``Z[zeta][delta][y]`` of degree at most 1 in the deltas.

    Stored flat as a map ``(delta_key, y_monomial, e) -> int``: the
    integer coefficient of ``zeta^e * delta * y^monomial``, where
    ``delta_key`` is ``None`` for the delta-free part or ``i`` for
    ``delta_i``, the monomial has its trailing zeros stripped, ``e`` is
    0..3 (the basis ``1, z, z^2, z^3`` of :class:`Cyc12`) and no
    coefficient is zero.  A product reduces ``zeta^(e1+e2)`` for
    ``e1 + e2`` in 4..6 through ``_ZETA_REDUCE``, read off
    :func:`zeta_pow`.  The public constructor takes a map
    ``(delta_key, y_monomial) -> Cyc12``, and ``str``/``repr`` show that
    form.  Multiplying two elements that both carry deltas raises (the
    calculus never needs it).

    >>> a = Tower.delta(0) * Tower.zeta(3)
    >>> b = Tower.delta(1) * Tower.zeta(3)
    >>> (a - b) + (b - a) == Tower.zero()
    True
    >>> str(Tower.zeta(2) * Tower.zeta(3) * Tower.delta(2))
    '(-z + z^3)*d2'
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[DeltaKey, Mono], Cyc12] | None = None):
        flat = {
            (dk, m, e): x
            for (dk, m), c in (terms or {}).items()
            for e, x in enumerate(c.coeffs)
        }
        self.terms = Tower.from_flat(flat).terms

    @classmethod
    def _canonical(cls, terms: dict[FlatKey, int]) -> "Tower":
        """Wrap flat ``terms`` that are already canonical (stripped
        monomials, ``e`` in 0..3, no zero coefficient); the ring
        operations build their results here."""
        t = object.__new__(cls)
        t.terms = terms
        return t

    @staticmethod
    def _scalar(coeffs: tuple[int, int, int, int]) -> "Tower":
        """The constant ``c0 + c1*z + c2*z^2 + c3*z^3``."""
        return Tower._canonical({(None, (), e): c for e, c in enumerate(coeffs) if c})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_flat(terms: Mapping[tuple[DeltaKey, Iterable[int], int], int]) -> "Tower":
        """Build from flat ``(delta_key, y_monomial, e) -> int`` terms,
        stripping monomials and summing repeated keys."""
        d: dict[FlatKey, int] = {}
        for (dk, m, e), c in terms.items():
            if dk not in (None, 0, 1, 2):
                raise ValueError("delta index must be 0, 1 or 2")
            if e not in (0, 1, 2, 3):
                raise ValueError("zeta exponent must be 0, 1, 2 or 3")
            if not isinstance(c, int):
                raise TypeError(f"Tower coefficient must be an int, not {type(c).__name__}")
            key = (dk, _strip(m), e)
            d[key] = d.get(key, 0) + int(c)
        return Tower._canonical({k: c for k, c in d.items() if c})

    @staticmethod
    def zero() -> "Tower":
        return Tower._canonical({})

    @staticmethod
    def const(n: int) -> "Tower":
        return Tower._canonical({(None, (), 0): n} if n else {})

    @staticmethod
    def zeta(k: int) -> "Tower":
        return Tower._scalar(zeta_pow(k).coeffs)

    @staticmethod
    def delta(i: int) -> "Tower":
        if i not in (0, 1, 2):
            raise ValueError("delta index must be 0, 1 or 2")
        return Tower._canonical({(i, (), 0): 1})

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
        if isinstance(other, Cyc12):
            other = Tower._scalar(other.coeffs)
        d: dict[FlatKey, int] = {}
        for (dk1, m1, e1), c1 in self.terms.items():
            for (dk2, m2, e2), c2 in other.terms.items():
                if dk1 is not None and dk2 is not None:
                    raise ValueError("product would be quadratic in delta")
                dk = dk1 if dk1 is not None else dk2
                m = _mono_mul(m1, m2)
                c = c1 * c2
                for e, z in _ZETA_REDUCE[e1 + e2]:
                    key = (dk, m, e)
                    d[key] = d.get(key, 0) + c * z
        return Tower._canonical({k: c for k, c in d.items() if c})

    __rmul__ = __mul__

    def _grouped(self) -> dict[tuple[DeltaKey, Mono], Cyc12]:
        """The terms as ``(delta_key, y_monomial) -> Cyc12``."""
        groups: dict[tuple[DeltaKey, Mono], list[int]] = {}
        for (dk, m, e), c in self.terms.items():
            groups.setdefault((dk, m), [0, 0, 0, 0])[e] = c
        return {k: Cyc12._canonical(tuple(c)) for k, c in groups.items()}

    def __repr__(self) -> str:
        return f"Tower({self._grouped()!r})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (dk, m), c in sorted(
            self._grouped().items(),
            key=lambda kv: (-1 if kv[0][0] is None else kv[0][0], _mono_key(kv[0][1])),
        ):
            mono = "*".join(
                f"y{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m, start=1)
                if e
            )
            head = f"({c})"
            if dk is not None:
                head += f"*d{dk}"
            if mono:
                head += f"*{mono}"
            parts.append(head)
        return " + ".join(parts)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
