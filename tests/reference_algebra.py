"""The tower ring with one ``Cyc12`` per term, kept as an independent
reference.

The library's ``Tower`` stores flat integer coefficients of
``zeta^0 .. zeta^3`` and reduces ``zeta^4 .. zeta^6`` through a table.
This module keeps the form it replaced, so that the differential tests
compare the library with code that shares neither shortcut: each term
is a ``(delta_key, y_monomial) -> Cyc12`` entry, every result goes
through the normalising constructor, and products use ``Cyc12``
multiplication.
"""

from __future__ import annotations

from typing import Mapping

from twostep.algebra import Cyc12, Mono, YPoly, _mono_key, _mono_mul, _strip, zeta_pow

DeltaKey = int | None  # None = delta-free part; 0/1/2 = coefficient of delta_i

_ONE = Cyc12((1, 0, 0, 0))


class Tower:
    """An element of ``Z[zeta][delta][y]`` of degree at most 1 in the deltas,
    as a map ``(delta_key, y_monomial) -> Cyc12``."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[DeltaKey, Mono], Cyc12] | None = None):
        d: dict[tuple[DeltaKey, Mono], Cyc12] = {}
        if terms:
            for k, c in terms.items():
                if c:
                    dk, m = k
                    key = (dk, _strip(m))
                    prev = d.get(key)
                    d[key] = c if prev is None else prev + c
        self.terms = {k: c for k, c in d.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Tower":
        return Tower()

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
        if isinstance(other, Cyc12):
            return Tower({k: c * other for k, c in self.terms.items()})
        d: dict[tuple[DeltaKey, Mono], Cyc12] = {}
        for (dk1, m1), c1 in self.terms.items():
            for (dk2, m2), c2 in other.terms.items():
                if dk1 is not None and dk2 is not None:
                    raise ValueError("product would be quadratic in delta")
                dk = dk1 if dk1 is not None else dk2
                key = (dk, _mono_mul(m1, m2))
                prev = d.get(key)
                prod = c1 * c2
                d[key] = prod if prev is None else prev + prod
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
