"""Gash propagation by scanning the piece lists, kept as an independent
reference.

The library moves a gash across a triangle by one lookup in
``PieceTables.replacements`` and edits one label dict per propagation.
This module keeps the step it replaced, so that the differential tests
compare the library with code that shares neither shortcut: each step
scans every up- or down-triangle for the replacement piece, and builds
a new ``Puzzle`` and ``GashedPuzzle``.
"""

from __future__ import annotations

from twostep.board import InvariantViolation, Puzzle, cell_ahead, cell_sides, rhombus_outer_edges
from twostep.labels import OUT_DOWN, OUT_UP, PieceTables, tables
from twostep.mutation import GashedPuzzle, PlacedGash


def _step(G: GashedPuzzle, g: PlacedGash, t: PieceTables):
    """One propagation under the piece tables ``t``. Returns (new
    GashedPuzzle, new PlacedGash), "stuck", or "blocked" (another gash
    on the target piece)."""
    B = G.base
    cell = cell_ahead(g.edge, g.d, B.n)
    if cell is None:
        return "stuck"
    other_edges = {h.edge for h in G.gashes if h != g}
    kind, x, yy = cell
    r0 = (x, yy) if kind == "U" else (x, yy - 1)  # the rhombus that would cover the cell
    if r0 in B.rhombi:
        p_pair, q_pair = rhombus_outer_edges(r0)
        if other_edges & (set(p_pair) | set(q_pair)):
            return "blocked"
        # read each pair's label from its non-gashed member
        p = B.labels[p_pair[1] if p_pair[0] == g.edge else p_pair[0]]
        q = B.labels[q_pair[1] if q_pair[0] == g.edge else q_pair[0]]
        if g.edge in p_pair:
            orig, newpq, pair = p, (g.new, q), p_pair
        else:
            orig, newpq, pair = q, (p, g.new), q_pair
        if g.orig != orig:
            raise InvariantViolation(f"gash {g} disagrees with rhombus {r0}")
        if newpq not in t.rhombi:
            return "stuck"
        ng = PlacedGash(pair[0] if pair[1] == g.edge else pair[1], g.d, g.orig, g.new)
    else:
        edges = cell_sides(cell)
        if other_edges & set(edges):
            return "blocked"
        s = edges.index(g.edge)
        q = tuple(g.orig if i == s else B.labels[edges[i]] for i in range(3))
        triples = t.up_list if cell[0] == "U" else t.down_list
        cands = []
        for q2 in triples:
            if q2[s] != g.new:
                continue
            agree = [i for i in range(3) if i != s and q2[i] == q[i]]
            if len(agree) == 1:
                cands.append((q2, agree[0]))
        if not cands:
            return "stuck"
        if len(cands) > 1:
            raise InvariantViolation(f"gash {g} has replacements {cands} at {cell}")
        q2, s1 = cands[0]
        s2 = ({0, 1, 2} - {s, s1}).pop()
        outs = OUT_UP if cell[0] == "U" else OUT_DOWN
        ng = PlacedGash(edges[s2], outs[s2], q[s2], q2[s2])
    labels = dict(B.labels)
    labels[g.edge] = g.new
    del labels[ng.edge]
    return GashedPuzzle(Puzzle(B.n, labels, B.rhombi), (G.gashes - {g}) | {ng}), ng


def propagate_full(
    G: GashedPuzzle, g: PlacedGash
) -> tuple[GashedPuzzle, PlacedGash, list]:
    """Propagate until stuck; returns the final state, the final gash,
    and the path of gashed edges (raising if an edge repeats)."""
    if g not in G.gashes:
        raise ValueError(f"gash {g} is not in this gashed puzzle")
    path = [g.edge]
    t = tables()
    while True:
        res = _step(G, g, t)
        if res in ("stuck", "blocked"):
            return G, g, path
        G, g = res
        if g.edge in path:
            raise InvariantViolation(f"propagation revisited edge {g.edge}")
        path.append(g.edge)


def phi(G: GashedPuzzle) -> GashedPuzzle:
    """Propagate both gashes to their fixed points and reverse them."""
    g1, g2 = sorted(G.gashes)
    G1, f1, p1 = propagate_full(G, g1)
    G2, f2, p2 = propagate_full(G1, g2)
    if not set(p1).isdisjoint(p2):
        raise InvariantViolation("propagation paths are not disjoint")
    return GashedPuzzle(G2.base, frozenset({f1.reverse(), f2.reverse()}))
