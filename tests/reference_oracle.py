"""The unpruned recursion oracle and the cover-chain Bruhat order, kept as
an independent reference.

The library's ``oracle_constant`` returns zero at once for a triple
outside ``u <= w, v <= w``, and its ``bruhat_leq`` reads prefix counts.
This module keeps the forms they replaced, so that the differential
tests compare the library with code that knows neither shortcut:
``bruhat_leq`` searches for a chain of covers from ``u`` up to ``w``,
and ``oracle_constant`` stops only at negative degree, at
``u = v = w`` or when it runs out of covers.  Both memoise in caches of
their own, apart from the library's.
"""

from __future__ import annotations

from functools import lru_cache

from twostep.algebra import YPoly, exact_divide
from twostep.strings import (
    DELTA_SPEC,
    String012,
    cocovers,
    content,
    covers,
    extreme_constant,
    length,
)


@lru_cache(maxsize=None)
def bruhat_leq(u: String012, w: String012) -> bool:
    """Whether a chain of covers leads from ``u`` up to ``w``."""
    if u == w:
        return True
    if length(u) >= length(w):
        return False
    return any(bruhat_leq(c.after, w) for c in covers(u))


@lru_cache(maxsize=None)
def oracle_constant(u: String012, v: String012, w: String012) -> YPoly:
    """``C^w_(u,v)`` by the associativity recursion, without the support
    test."""
    type_u = content(u)
    if type_u != content(v) or type_u != content(w):
        raise ValueError("mismatched string types")
    if length(u) + length(v) - length(w) < 0:
        return YPoly.zero()
    if u == w and v == w:
        return extreme_constant(w)
    if u == w:
        u, v = v, u
    terms: dict[tuple[int, ...], int] = {}
    parts = [(c.delta_spec(), (u, v, c.before)) for c in cocovers(w)]
    parts += [(-c.delta_spec(), (c.after, v, w)) for c in covers(u)]
    for k, triple in parts:
        for m, coeff in oracle_constant(*triple).tuple_terms().items():
            terms[m] = terms.get(m, 0) + k * coeff
    rhs = YPoly(terms)
    if not rhs:
        return rhs
    divisor = YPoly(
        {
            (0,) * i + (1,): DELTA_SPEC[a] - DELTA_SPEC[b]
            for i, (a, b) in enumerate(zip(u, w))
            if a != b
        }
    )
    return exact_divide(rhs, divisor)
