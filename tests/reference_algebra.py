"""The polynomial ring with exponent-tuple monomials and the tower ring
with one ``Cyc12`` per term, kept as independent references.

The library's ``YPoly`` and ``Tower`` key each y-monomial by one packed
integer, so a monomial product is one integer addition; ``Tower``
stores flat integer coefficients of ``zeta^0 .. zeta^3`` and reads the
reduced powers ``zeta^0 .. zeta^6`` off a literal table.  This module
keeps the forms they replaced, so that the differential tests compare
the library with code that shares none of these shortcuts:

- ``YPoly`` keys its terms by exponent tuples with trailing zeros
  stripped, multiplies monomials fieldwise, and has no exponent limit;
  ``format_poly``, ``exact_divide`` and ``graham_decompose`` work on
  that form;
- each ``Tower`` term is a ``(delta_key, y_monomial) -> Cyc12`` entry,
  every result goes through the normalising constructor, products use
  ``Cyc12`` multiplication, and every power of ``zeta`` is computed here
  by that multiplication.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from twostep.algebra import NotDivisible, NotInDifferenceRing

Mono = tuple[int, ...]  # exponent vector, trailing zeros stripped




def _strip(mono: Iterable[int]) -> Mono:
    m = list(mono)
    while m and m[-1] == 0:
        m.pop()
    return tuple(m)


class YPoly:
    """A sparse polynomial over ``Z`` in variables ``y1, y2, ...``, as a
    map from exponent tuples (trailing zeros stripped) to nonzero
    integer coefficients."""

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
    """The variable ``y_i`` (1-based)."""
    if i < 1:
        raise ValueError("variables are 1-based")
    return YPoly({(0,) * (i - 1) + (1,): 1})


# -- canonical text form ----------------------------------------------------

def _mono_key(m: Mono) -> tuple:
    # graded-lex with y1 before y2 before ...
    return (sum(m), tuple(-e for e in m))


def format_poly(p: YPoly) -> str:
    """Canonical text form: graded-lex ordered sum of ``c*y1^a1*...`` terms."""
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


def exact_divide(p: YPoly, l: YPoly) -> YPoly:
    """Divide ``p`` by the linear form ``l`` by synthetic division in the
    highest variable of ``l``, raising :class:`NotDivisible` on a
    non-integral quotient or a nonzero remainder."""
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


def graham_decompose(p: YPoly) -> dict[Mono, int]:
    """``p`` in monomials of ``z_i = y_(i+1) - y_i``, by substituting
    ``y_i -> z_1 + ... + z_(i-1)`` and checking the round trip."""
    n = p.nvars()
    subs = {1: YPoly()}
    acc = YPoly()
    for i in range(2, n + 1):
        acc = acc + y(i - 1)
        subs[i] = acc
    q = p.substitute(subs)
    back = {t: y(t + 1) - y(t) for t in range(1, n)}
    if q.substitute(back) != p:
        raise NotInDifferenceRing("not a polynomial in the differences")
    return dict(q.terms)


DeltaKey = int | None  # None = delta-free part; 0/1/2 = coefficient of delta_i


class Cyc12:
    """An element ``c0 + c1*z + c2*z^2 + c3*z^3`` of ``Z[z]/(z^4 - z^2 + 1)``,
    where ``z`` is the primitive 12th root of unity ``exp(i*pi/6)``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = (0, 0, 0, 0)):
        self.coeffs = tuple(coeffs)
        if not all(isinstance(x, int) for x in self.coeffs):
            raise TypeError("Cyc12 coefficient must be an int")

    @staticmethod
    def from_int(n: int) -> "Cyc12":
        return Cyc12((n, 0, 0, 0))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Cyc12) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Cyc12":
        return Cyc12(-x for x in self.coeffs)

    def __add__(self, other: "Cyc12") -> "Cyc12":
        return Cyc12(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "Cyc12") -> "Cyc12":
        return self + (-other)

    def __mul__(self, other: "Cyc12") -> "Cyc12":
        # convolve to degree 6, then reduce with z^k = z^(k-2) - z^(k-4)
        prod = [0] * 7
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        for k in range(6, 3, -1):
            prod[k - 2] += prod[k]
            prod[k - 4] -= prod[k]
        return Cyc12(prod[:4])

    def __str__(self) -> str:
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


_ONE = Cyc12((1, 0, 0, 0))
_ZETA_POWS = [_ONE]
for _ in range(11):
    _ZETA_POWS.append(_ZETA_POWS[-1] * Cyc12((0, 1, 0, 0)))


def zeta_pow(k: int) -> Cyc12:
    """``zeta^k``, from ``k mod 12`` products by ``zeta``."""
    return _ZETA_POWS[k % 12]


class Tower:
    """An element of ``Z[zeta][delta][y]`` of degree at most 1 in the deltas,
    as a map ``(delta_key, y_monomial) -> Cyc12``."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[DeltaKey, Mono], Cyc12]):
        d: dict[tuple[DeltaKey, Mono], Cyc12] = {}
        for (dk, m), c in terms.items():
            key = (dk, _strip(m))
            d[key] = d.get(key, Cyc12()) + c
        self.terms = {k: c for k, c in d.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Tower":
        return Tower({})

    @staticmethod
    def const(n: int) -> "Tower":
        return Tower({(None, ()): Cyc12.from_int(n)})

    @staticmethod
    def zeta(k: int) -> "Tower":
        return Tower({(None, ()): zeta_pow(k)})

    @staticmethod
    def delta(i: int) -> "Tower":
        if i not in (0, 1, 2):
            raise ValueError("delta index must be 0, 1 or 2")
        return Tower({(i, ()): _ONE})

    @staticmethod
    def from_ypoly(p: YPoly) -> "Tower":
        """The reference ``YPoly`` ``p`` as a tower."""
        return Tower({(None, m): Cyc12.from_int(c) for m, c in p.terms.items()})

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Tower) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "Tower":
        return Tower({k: -c for k, c in self.terms.items()})

    def __add__(self, other: "Tower") -> "Tower":
        d = dict(self.terms)
        for k, c in other.terms.items():
            d[k] = d.get(k, Cyc12()) + c
        return Tower(d)

    def __sub__(self, other: "Tower") -> "Tower":
        return self + (-other)

    def __mul__(self, other) -> "Tower":
        if isinstance(other, int):
            other = Tower.const(other)
        d: dict[tuple[DeltaKey, Mono], Cyc12] = {}
        for (dk1, m1), c1 in self.terms.items():
            for (dk2, m2), c2 in other.terms.items():
                if dk1 is not None and dk2 is not None:
                    raise ValueError("product would be quadratic in delta")
                dk = dk1 if dk1 is not None else dk2
                key = (dk, _mono_mul(m1, m2))
                d[key] = d.get(key, Cyc12()) + c1 * c2
        return Tower(d)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (dk, m), c in sorted(
            self.terms.items(),
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
