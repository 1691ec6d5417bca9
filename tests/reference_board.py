"""Puzzle validation as it was before the per-size board table, kept as
an independent reference.

``twostep.board.Puzzle.validate`` reads the cells, their sides and
covering rhombi, and the edge set from ``board_table(n)``, and skips
the unlabeled-edge scan when a count shows that every edge is labeled.
This module keeps the validation it replaced, so that the differential
tests compare the two: it rebuilds the edge list and the rhombus
interiors, walks the up- and down-cells through ``cell_sides``, and
reads the border labels spelled out, on every call.
"""

from __future__ import annotations

from twostep.board import (
    Puzzle,
    all_edges,
    cell_sides,
    down_cells,
    rhombus_inner_edge,
    rhombus_outer_edges,
    up_cells,
)
from twostep.labels import SIMPLE, tables


def pieces(P: Puzzle) -> list:
    """The rhombi, sorted, then the uncovered up- and down-triangles,
    as ``(kind, anchor, labels)``."""
    labels = P.labels
    out = []
    for r in sorted(P.rhombi):
        (p, _), (q, _) = rhombus_outer_edges(r)
        out.append(("R", r, (labels[p], labels[q])))
    ups = P.rhombi
    downs = frozenset((x, yy + 1) for x, yy in P.rhombi)
    for kind, cells, covered in (("U", up_cells, ups), ("D", down_cells, downs)):
        for cell in cells(P.n):
            if cell not in covered:
                a, b, c = cell_sides((kind, *cell))
                out.append((kind, cell, (labels[a], labels[b], labels[c])))
    return out


def boundary(P: Puzzle) -> tuple:
    n, labels = P.n, P.labels
    u = tuple(labels[("A", 0, n - i)] for i in range(1, n + 1))
    v = tuple(labels[("B", i - 1, i - 1)] for i in range(1, n + 1))
    w = tuple(labels[("H", i - 1, n - 1)] for i in range(1, n + 1))
    return (u, v, w)


def validate(P: Puzzle) -> list[str]:
    """Empty list iff the labeling is a valid puzzle."""
    t = tables()
    out: list[str] = []
    n = P.n
    for r in sorted(P.rhombi):
        x, yy = r
        if not 0 <= x <= yy < n - 1:
            out.append(f"rhombus {r} leaves the board")
    internal = {rhombus_inner_edge(r) for r in P.rhombi}
    for e in all_edges(n):
        if e not in P.labels and e not in internal:
            out.append(f"unlabeled edge {e}")
    if out:
        return out
    labels = P.labels
    for kind, cell, lab in pieces(P):
        if kind == "R":
            (_, p1), (_, q1) = rhombus_outer_edges(cell)
            if lab != (labels[p1], labels[q1]):
                out.append(f"rhombus {cell} has unequal opposite sides")
            elif lab not in t.rhombi:
                out.append(f"invalid rhombus {lab} at {cell}")
        elif kind == "U":
            if not t.valid_up(*lab):
                out.append(f"invalid up-triangle {lab} at {cell}")
        elif not t.valid_down(*lab):
            out.append(f"invalid down-triangle {lab} at {cell}")
    for s in boundary(P):
        for l in s:
            if l not in SIMPLE:
                out.append(f"composed label {l} on the boundary")
    return out
