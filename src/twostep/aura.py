"""Auras: vector-valued invariants of edges, gashes, and flawed puzzles.

An *aura* is an element of ``Z[zeta][delta0, delta1, delta2]`` that is
linear in the deltas (a :class:`~.algebra.Tower` without y-variables).
A semi-labeled edge -- an edge with a label on one side only -- is
encoded by the pair ``(d, label)`` where ``d`` is the gash direction
(angle ``(2d + 1) * 30`` degrees) perpendicular to the edge and pointing
toward the label's side.  For a simple label ``a`` the aura is
``delta_a * zeta^(2d+1)``; for composed labels it is forced by the rule
that the side auras of every valid piece (labels moved slightly inside)
sum to zero.  The composed values are derived once per table value (see
``PieceTables.aura``) and checked for consistency across all pieces.

The aura of a gash is the sum of its two semi-labeled edges; gashes in
one propagation class share one aura, and swapping the two labels
negates it.  The aura of a flawed puzzle with a gash-pair or marked-scab
flaw is the aura of the right gash of its resolution.  Equivariant auras
scale edge auras by the edge weights ``y_i``; the ``check_*`` functions
below are executable forms of the identities that together prove the
puzzle rule, each returning a report dict ``{check, instance, pass,
lhs, rhs}`` whose sides are formatted only when the check fails.

>>> from .algebra import Tower
>>> aura_table()[(1, 0)] == Tower.delta(0) * Tower.zeta(3)
True
>>> aura_table()[(1, 3)] == Tower.delta(1) * Tower.zeta(5) + Tower.delta(0) * Tower.zeta(1)
True
>>> gash_aura((1, 0, 4)) == (Tower.delta(0) * Tower.zeta(3)
...     + Tower.delta(1) * Tower.zeta(7) + Tower.delta(2) * Tower.zeta(11))
True
>>> gash_aura((1, 0, 1)) == (Tower.delta(0) - Tower.delta(1)) * Tower.zeta(3)
True
>>> check_gash_classes()["pass"]
True
"""

from __future__ import annotations

from typing import Iterable

from .algebra import Tower
from .board import Puzzle, border_edge, cell_sides, edge_weight, rhombus_weight
from .labels import IN, tables
from .mutation import (
    AbstractGash,
    FlawedPuzzle,
    GashedPuzzle,
    all_directed_gashes,
    enumerate_flawed,
    gash_class,
    opposite,
    right_gash,
    scab_positions,
)
from .search import structure_constant
from .strings import String012, c_form, content, fmt, neighbours

__all__ = [
    "aura_table",
    "gash_aura",
    "resolution_aura",
    "flawed_aura",
    "gamma_form",
    "piece_equivariant_aura",
    "scab_equivariant_aura",
    "equivariant_flawed_aura",
    "check_gash_classes",
    "check_boundary_aura",
    "check_scab_sum",
    "check_mutation_closed_sum",
    "check_temporary_sum",
    "check_cover_aura",
    "check_scab_weight",
    "check_two_sums",
    "check_recursion",
]

def aura_table() -> dict[tuple[int, int], Tower]:
    """Aura of every semi-labeled edge ``(direction d, label)``: the
    direction ``d`` is perpendicular to the edge and points toward the
    side bearing ``label``.

    >>> from .algebra import Tower
    >>> aura_table()[(4, 2)] == Tower.delta(2) * Tower.zeta(9)
    True
    """
    return tables().aura


def gash_aura(g: AbstractGash) -> Tower:
    """Aura of a (directed) gash: the sum over its two semi-labeled
    edges.  The direction is immaterial (reversing gives the same
    undirected gash) while swapping the labels negates the aura.

    >>> all(gash_aura(opposite(g)) == -gash_aura(g) for g in all_directed_gashes())
    True
    """
    d, orig, new = g
    table = tables().aura
    return table[(d, orig)] + table[((d + 3) % 6, new)]


def resolution_aura(R: GashedPuzzle) -> Tower:
    """Aura of a resolution: the aura of its right gash."""
    return gash_aura(right_gash(R).abstract)


def flawed_aura(P: FlawedPuzzle) -> Tower:
    """Aura of a flawed puzzle with a gash-pair or marked-scab flaw (the
    flaw then has a unique resolution)."""
    if P.flaw_type == "temporary":
        raise ValueError("a temporary-piece flaw has three resolution auras")
    (R,) = P.resolutions()
    return resolution_aura(R)


def gamma_form(a: int, b: int, n: int) -> Tower:
    """``gamma = a*delta0 + (b-a)*delta1 + (n-b)*delta2``."""
    return (
        Tower.delta(0) * a + Tower.delta(1) * (b - a) + Tower.delta(2) * (n - b)
    )


# ---------------------------------------------------------------------------
# Equivariant auras


def piece_equivariant_aura(P: Puzzle, cell: tuple[str, int, int]) -> Tower:
    """Weight-scaled aura of a triangular piece: the sum over its sides
    of ``weight(e)`` times the edge aura, with labels moved inside the piece."""
    table = tables().aura
    out = Tower.zero()
    for e, d in zip(cell_sides(cell), IN[cell[0]]):
        out = out + Tower.from_ypoly(edge_weight(e, P.n)) * table[(d, P.labels[e])]
    return out


def scab_equivariant_aura(P: Puzzle, x: int, yy: int) -> Tower:
    """Equivariant aura of the two-triangle vertical rhombus made of
    ``U(x,y)`` and ``D(x,y+1)`` (zero unless the pair is a scab)."""
    return piece_equivariant_aura(P, ("U", x, yy)) + piece_equivariant_aura(
        P, ("D", x, yy + 1)
    )


def equivariant_flawed_aura(P: FlawedPuzzle) -> Tower:
    """Equivariant aura of a marked-scab flawed puzzle: the equivariant
    aura of its marked scab."""
    if P.flaw_type != "scab":
        raise ValueError("equivariant aura is defined for marked-scab flaws")
    x, yy = P.flaw[1]
    return scab_equivariant_aura(P.base, x, yy)


# ---------------------------------------------------------------------------
# Executable identities (each returns {check, instance, pass, lhs, rhs})


# per border, the direction d of a gash there pointing into the puzzle: the
# border's aura sums carry zeta^(2d+1), and a cover's gash pair zeta^(2d+7)
_INWARD = {border: border_edge(border, 1, 1)[1] for border in "uvw"}


def _border_form(u: String012, v: String012, w: String012) -> Tower:
    """``C_u zeta^11 + C_v zeta^7 + C_w zeta^3``."""
    terms = [c_form(s) * Tower.zeta(2 * d + 1) for s, d in zip((u, v, w), _INWARD.values())]
    return sum(terms, Tower.zero())


def _report(check: str, instance: str, lhs: Tower | list, rhs: Tower | list) -> dict:
    """The report of ``lhs == rhs``.  Its sides are formatted, a list's
    members joined by "; ", only when the check fails, and are "" when it
    passes."""
    ok = lhs == rhs

    def show(side) -> str:
        if ok:
            return ""
        return "; ".join(map(str, side)) if isinstance(side, list) else str(side)

    return {"check": check, "instance": instance, "pass": ok, "lhs": show(lhs), "rhs": show(rhs)}


def check_gash_classes() -> dict:
    """All gashes in one propagation class share one aura, and opposite
    classes carry opposite auras."""
    bad = []
    for g in all_directed_gashes():
        a = gash_aura(g)
        if any(gash_aura(h) != a for h in gash_class(g)):
            bad.append(g)
        if gash_aura(opposite(g)) != -a:
            bad.append(g)
    return {
        "check": "class-constant auras",
        "instance": "all 336 directed gashes",
        "pass": not bad,
        "lhs": "auras per class",
        "rhs": f"constant; violations: {sorted(set(bad))}",
    }


def check_boundary_aura(P: Puzzle) -> dict:
    """Border aura sums of a puzzle: with labels moved inside, the left,
    right, and bottom borders sum to ``gamma*zeta^11``, ``gamma*zeta^7``,
    and ``gamma*zeta^3``."""
    u, v, w = P.boundary()
    a, b, n = content(u)
    gamma = gamma_form(a, b, n)
    table = tables().aura
    sums, targets = [], []
    for s, d in zip((u, v, w), _INWARD.values()):
        total = Tower.zero()
        for letter in s:
            total = total + table[(d, letter)]
        sums.append(total)
        targets.append(gamma * Tower.zeta(2 * d + 1))
    inst = f"boundary ({fmt(u)}, {fmt(v)}, {fmt(w)})"
    return _report("border aura sums", inst, sums, targets)


def check_scab_sum(P: Puzzle) -> dict:
    """Scab sum of a flawless puzzle: the equivariant auras of its scabs
    add up to ``C_u zeta^11 + C_v zeta^7 + C_w zeta^3``."""
    u, v, w = P.boundary()
    lhs = Tower.zero()
    for x, yy in scab_positions(P):
        lhs = lhs + scab_equivariant_aura(P, x, yy)
    rhs = _border_form(u, v, w)
    inst = f"puzzle with boundary ({fmt(u)}, {fmt(v)}, {fmt(w)})"
    return _report("scab sum", inst, lhs, rhs)


def check_mutation_closed_sum(S: Iterable[FlawedPuzzle]) -> dict:
    """Over a mutation-closed set of flawed puzzles, the auras of the
    scab-flawed and gash-pair-flawed members sum to zero (temporary
    flaws do not contribute)."""
    total = Tower.zero()
    count = 0
    for P in S:
        count += 1
        if P.flaw_type in ("scab", "gashpair"):
            total = total + flawed_aura(P)
    inst = f"mutation-closed set of {count} flawed puzzles"
    return _report("mutation-closed aura sum", inst, total, Tower.zero())


def check_temporary_sum(P: FlawedPuzzle) -> dict:
    """The three resolution auras of a temporary-piece flaw sum to zero."""
    if P.flaw_type != "temporary":
        raise ValueError("not a temporary-piece flaw")
    total = Tower.zero()
    for R in P.resolutions():
        total = total + resolution_aura(R)
    return _report(
        "temporary resolution sum", f"temporary flaw at {P.flaw[1]}", total, Tower.zero()
    )


def check_cover_aura(P: FlawedPuzzle) -> dict:
    """A gash pair realizing a Bruhat cover has aura ``zeta^5 * delta``
    (left border), ``zeta * delta`` (right), or ``zeta^9 * delta``
    (bottom), where ``delta`` is the cover's delta form."""
    border, ce = P.cover_edge()
    rhs = Tower.zeta(2 * _INWARD[border] + 7) * ce.delta_tower()
    inst = f"gash pair on border {border}: {fmt(ce.before)} -> {fmt(ce.after)}"
    return _report("cover gash aura", inst, flawed_aura(P), rhs)


def check_scab_weight(P: FlawedPuzzle) -> dict:
    """For a marked-scab flaw, the equivariant aura is ``-weight(s)``
    times the ordinary aura."""
    lhs = equivariant_flawed_aura(P)
    rhs = -Tower.from_ypoly(rhombus_weight(*P.flaw[1], P.base.n)) * flawed_aura(P)
    return _report("scab weight", f"marked scab at {P.flaw[1]}", lhs, rhs)


def check_two_sums(u: String012, v: String012, w: String012) -> dict:
    """The key identity behind the puzzle rule: over all flawed puzzles
    with outer boundary ``(u, v, w)``, the weighted equivariant auras of
    the scab-flawed members equal the weighted auras of the gash-pair-
    flawed members."""
    lhs = Tower.zero()
    rhs = Tower.zero()
    for P in enumerate_flawed(u, v, w):
        if P.flaw_type == "scab":
            lhs = lhs + equivariant_flawed_aura(P) * Tower.from_ypoly(P.base.weight())
        elif P.flaw_type == "gashpair":
            rhs = rhs + flawed_aura(P) * Tower.from_ypoly(P.base.weight())
    inst = f"flawed puzzles with boundary ({fmt(u)}, {fmt(v)}, {fmt(w)})"
    return _report("two weighted sums", inst, lhs, rhs)


def check_recursion(u: String012, v: String012, w: String012) -> dict:
    """The recursion satisfied by the puzzle-rule constants, in the
    delta-linear ring: ``(C_u z^11 + C_v z^7 + C_w z^3) C^w_{u,v}``
    equals the cover-sum of neighbouring constants."""
    c = Tower.from_ypoly(structure_constant(u, v, w))
    lhs = _border_form(u, v, w) * c
    rhs = Tower.zero()
    for border, ce, triple in neighbours(u, v, w):
        term = Tower.from_ypoly(structure_constant(*triple))
        rhs = rhs + Tower.zeta(2 * _INWARD[border] + 7) * ce.delta_tower() * term
    inst = f"recursion at ({fmt(u)}, {fmt(v)}, {fmt(w)})"
    return _report("aura recursion", inst, lhs, rhs)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
