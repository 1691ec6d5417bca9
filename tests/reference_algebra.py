"""The tower ring with one ``Cyc12`` per term, kept as an independent
reference.

The library's ``Tower`` stores flat integer coefficients of
``zeta^0 .. zeta^3`` and reads the reduced powers ``zeta^0 .. zeta^6``
off a literal table.  This module keeps the form it replaced, so that
the differential tests compare the library with code that shares
neither shortcut: each term is a ``(delta_key, y_monomial) -> Cyc12``
entry, every result goes through the normalising constructor, products
use ``Cyc12`` multiplication, and every power of ``zeta`` is computed
here by that multiplication.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from twostep.algebra import Mono, YPoly, _mono_key, _mono_mul, _strip

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
