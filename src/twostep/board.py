"""Triangular-lattice geometry and puzzles.

This module owns every decision about the triangle's geometry: the
cells and their sides (``cell_sides``), the cell a gash points at
(``cell_ahead``), the border edges and their inward directions
(``border_edge``, inverted by ``border_position``), the rhombus weight,
gash directions and edge midpoints in the plane (``edge_midpoint``),
and the walk over a tiling's pieces (``Puzzle.pieces``) that
validation, JSON and SVG share.  ``board_table(n)`` holds these answers
for one board size, built on first use: its edge set, each cell's
sides and covering rhombus, the border edges, and the cell ahead of
every edge in each direction, so that gash propagation and validation
look them up.

A size-``n`` puzzle fills the upward equilateral triangle with rows
``y = 0`` (apex) through ``n-1`` (bottom).  Row ``y`` holds up-cells
``U(x,y)`` for ``0 <= x <= y`` and down-cells ``D(x,y)`` for
``0 <= x <= y-1`` (between ``U(x,y)`` and ``U(x+1,y)``).

Edges are identified by the up-cell they bound::

    A(x,y) = left side of U(x,y)      (SW-NE direction)
    B(x,y) = right side of U(x,y)     (NW-SE direction)
    H(x,y) = bottom side of U(x,y)    (horizontal)

so ``D(x,y)`` has NW side ``B(x,y)``, NE side ``A(x+1,y)`` and top side
``H(x,y-1)``.  The boundary strings are read left border bottom-up
(``u_i = A(0, n-i)``), right border top-down (``v_i = B(i-1, i-1)``) and
bottom left-right (``w_i = H(i-1, n-1)``), all "left to right" along the
border.

A rhombus occurrence is ``(x, y)``: the vertical rhombus made of
up-cell ``U(x,y)`` over down-cell ``D(x,y+1)``, the only rhombus of the
equivariant puzzle rule.  It spans the bottom-edge positions
``(i, j) = (x+1, n-y+x)`` and carries weight ``y_j - y_i``.  The unique
puzzle with boundary ``(10, 10, 10)`` has one rhombus:

>>> from .strings import parse
>>> P = Puzzle(2, {("A", 0, 0): 0, ("B", 0, 0): 1, ("A", 0, 1): 1, ("B", 0, 1): 1,
...     ("H", 0, 1): 1, ("A", 1, 1): 0, ("B", 1, 1): 0, ("H", 1, 1): 0}, frozenset({(0, 0)}))
>>> P.boundary() == (parse("10"), parse("10"), parse("10"))
True
>>> P.validate()
[]
>>> str(P.weight())
'-1*y1 + 1*y2'
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .algebra import NVARS, YPoly, y
from .labels import IN, SIMPLE, dual_label, tables

__all__ = [
    "InvariantViolation",
    "Edge",
    "Rhombus",
    "Puzzle",
    "up_cells",
    "down_cells",
    "up_cell_edges",
    "down_cell_edges",
    "rhombus_outer_edges",
    "rhombus_inner_edge",
    "all_edges",
    "edge_weight",
    "rhombus_position",
    "puzzle_to_json",
    "puzzle_from_json",
    "render_text",
    "render_svg",
]

Edge = tuple[str, int, int]  # ("A"|"B"|"H", x, y)
Rhombus = tuple[int, int]  # (x, y): U(x,y) over D(x,y+1)


def up_cells(n: int) -> Iterator[tuple[int, int]]:
    for yy in range(n):
        for x in range(yy + 1):
            yield (x, yy)


def down_cells(n: int) -> Iterator[tuple[int, int]]:
    for yy in range(1, n):
        for x in range(yy):
            yield (x, yy)


def up_cell_edges(x: int, yy: int) -> tuple[Edge, Edge, Edge]:
    """(left, right, bottom) edges of U(x,y)."""
    return (("A", x, yy), ("B", x, yy), ("H", x, yy))


def down_cell_edges(x: int, yy: int) -> tuple[Edge, Edge, Edge]:
    """(nw, ne, top) edges of D(x,y)."""
    return (("B", x, yy), ("A", x + 1, yy), ("H", x, yy - 1))


def cell_sides(cell: tuple[str, int, int]) -> tuple[Edge, Edge, Edge]:
    """The sides of the cell ``("U"|"D", x, y)``: (left, right, bottom)
    of an up-cell, (nw, ne, top) of a down-cell."""
    kind, x, yy = cell
    return up_cell_edges(x, yy) if kind == "U" else down_cell_edges(x, yy)


def on_board(cell: tuple[str, int, int], n: int) -> bool:
    """Whether the cell ``("U"|"D", x, y)`` lies on the size-``n`` board."""
    kind, x, yy = cell
    if kind == "U":
        return 0 <= x <= yy <= n - 1
    return kind == "D" and 0 <= x < yy <= n - 1


# (edge kind, d) -> (cell kind, dx, dy) from each cell's sides and the directions
# into it: a gash with direction d on the edge at (x, y) points at (x + dx, y + dy)
_AHEAD = {
    (ek, d): (kind, -ex, -ey)
    for kind, ins in IN.items()
    for (ek, ex, ey), d in zip(cell_sides((kind, 0, 0)), ins)
}


def cell_ahead(edge: Edge, d: int, n: int) -> tuple[str, int, int] | None:
    """The cell a gash at ``edge`` with direction ``d`` points at, or
    None when it points off the board."""
    kind, x, yy = edge
    ahead = _AHEAD.get((kind, d))
    if ahead is None:
        raise ValueError(f"direction {d} is not perpendicular to edge {edge}")
    ck, dx, dy = ahead
    cell = (ck, x + dx, yy + dy)
    return cell if on_board(cell, n) else None


class BoardCell(NamedTuple):
    """A cell ``kind`` (``"U"`` or ``"D"``) at ``anchor`` ``(x, y)``, its
    ``sides`` in ``cell_sides`` order, and the rhombus that would cover it."""

    kind: str
    anchor: tuple[int, int]
    sides: tuple[Edge, Edge, Edge]
    cover: Rhombus


class BoardTable(NamedTuple):
    """The geometry of one board size (see ``board_table``)."""

    edges: frozenset[Edge]
    anchors: frozenset[Rhombus]  # the rhombi that fit on the board
    cells: tuple[BoardCell, ...]  # the up-cells, then the down-cells
    border: tuple[tuple[Edge, ...], ...]  # the ``border_edge``s of u, v and w
    # (edge, d) -> (the cell ahead, the side the gash enters by), or None
    # off the board; no key when d is not perpendicular to the edge
    ahead: dict[tuple[Edge, int], tuple[BoardCell, int] | None]


@lru_cache(maxsize=64)  # one entry per size n <= NVARS
def board_table(n: int) -> BoardTable:
    """The size-``n`` board's edges, cells, border and ``cell_ahead`` answers."""
    cells = tuple(BoardCell("U", (x, yy), up_cell_edges(x, yy), (x, yy)) for x, yy in up_cells(n))
    cells += tuple(
        BoardCell("D", (x, yy), down_cell_edges(x, yy), (x, yy - 1)) for x, yy in down_cells(n)
    )
    by_cell = {(c.kind, *c.anchor): c for c in cells}
    edges = all_edges(n)
    ahead = {  # by_cell.get(None) is None: off the board
        (e, d): (c := by_cell.get(cell_ahead(e, d, n))) and (c, c.sides.index(e))
        for e in edges for d in range(6) if (e[0], d) in _AHEAD
    }
    anchors = frozenset(c.cover for c in cells if c.kind == "D")
    border = tuple(tuple(border_edge(b, i, n)[0] for i in range(1, n + 1)) for b in "uvw")
    return BoardTable(frozenset(edges), anchors, cells, border, ahead)


def rhombus_inner_edge(r: Rhombus) -> Edge:
    """The unlabeled edge interior to a rhombus occurrence."""
    return ("H", *r)


def rhombus_outer_edges(r: Rhombus) -> tuple[tuple[Edge, Edge], tuple[Edge, Edge]]:
    """The two opposite-side pairs ``(p_pair, q_pair)`` of a rhombus: the
    ``p`` sides are the NW-SE ones (the up-cell's right side and the
    down-cell's NW side), the ``q`` sides the SW-NE ones."""
    x, yy = r
    return ((("B", x, yy), ("B", x, yy + 1)), (("A", x, yy), ("A", x + 1, yy + 1)))


def all_edges(n: int) -> list[Edge]:
    out: list[Edge] = []
    for x, yy in up_cells(n):
        out.extend(up_cell_edges(x, yy))
    return out


def edge_weight(e: Edge, n: int) -> YPoly:
    """The weight ``y_i`` of an edge (0 for interior horizontals)."""
    kind, x, yy = e
    if kind == "B":
        return y(x + 1)
    if kind == "A":
        return y(n - yy + x)
    if yy == n - 1:
        return y(x + 1)
    return YPoly.zero()


def rhombus_position(x: int, yy: int, n: int) -> tuple[int, int]:
    """The bottom-edge pair (i, j), i < j, spanned by a vertical rhombus.

    >>> sorted(rhombus_position(x, yy, 4) for yy in range(3) for x in range(yy + 1))
    [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    """
    return (x + 1, n - yy + x)


def rhombus_weight(x: int, yy: int, n: int) -> YPoly:
    """The weight ``y_j - y_i`` of the rhombus ``(x, y)`` at ``(i, j)``."""
    i, j = rhombus_position(x, yy, n)
    return y(j) - y(i)


def border_edge(border: str, i: int, n: int) -> tuple[Edge, int]:
    """The edge at 1-based position ``i`` of border ``"u"``, ``"v"`` or
    ``"w"``, and the direction of a gash there pointing into the puzzle."""
    if border == "u":
        return ("A", 0, n - i), 5
    if border == "v":
        return ("B", i - 1, i - 1), 3
    return ("H", i - 1, n - 1), 1


def border_position(edge: Edge, n: int) -> tuple[str, int]:
    """The border and 1-based position of a border edge: the inverse
    of ``border_edge``."""
    kind, x, yy = edge
    border, i = {"A": ("u", n - yy), "B": ("v", yy + 1), "H": ("w", x + 1)}[kind]
    if border_edge(border, i, n)[0] != edge:
        raise ValueError(f"edge {edge} is not on the border")
    return border, i


# A gash direction d makes the angle (2d + 1) * 30 degrees with the x axis:
# it is (DIR_C[d] * sqrt(3) / 2, DIR_S[d] / 2).
DIR_C = (1, 0, -1, -1, 0, 1)
DIR_S = (1, 2, 1, -1, -2, -1)


def edge_midpoint(e: Edge) -> tuple[int, int]:
    """Integers ``(X, Y)`` placing an edge's midpoint at the plane point
    ``(X / 4, Y * sqrt(3) / 4)``, where vertex ``(x, y)`` sits at
    ``(x - y / 2, -y * sqrt(3) / 2)``."""
    kind, x, yy = e
    # xs, ys: coordinate sums of the edge's two end vertices
    if kind == "A":
        xs, ys = 2 * x, 2 * yy + 1
    elif kind == "B":
        xs, ys = 2 * x + 1, 2 * yy + 1
    else:
        xs, ys = 2 * x + 1, 2 * yy + 2
    return (2 * xs - ys, -ys)


class InvariantViolation(RuntimeError):
    """A library invariant does not hold: a bug, or piece tables that
    break an assumption of the mutation theory."""


@dataclass(frozen=True, eq=False)
class Puzzle:
    """A puzzle on the size-``n`` triangle.

    ``labels`` maps edges to labels (edges interior to a rhombus are
    omitted).  It is a read-only view of the puzzle's own copy, since
    listed puzzles are shared by every caller (see ``search``);
    ``P.labels.copy()`` is a ``dict`` to edit.  ``rhombi`` is the set of
    rhombus occurrences.  ``key`` (size, sorted labels, sorted rhombi) is
    the puzzle's identity: equality and hashing compare it alone, here
    and in the gashed and flawed puzzles built on a ``Puzzle``.  Most
    puzzles built on the way (a propagation's stops, a flaw's
    resolutions) are never compared, so the key is sorted on the first
    comparison or hash and then kept.
    """

    n: int
    labels: Mapping[Edge, int]
    rhombi: frozenset[Rhombus] = frozenset()

    def __post_init__(self):
        labels = dict(self.labels)
        for r in self.rhombi:
            labels.pop(rhombus_inner_edge(r), None)
        object.__setattr__(self, "labels", MappingProxyType(labels))

    @cached_property
    def key(self) -> tuple:
        return (self.n, tuple(sorted(self.labels.items())), tuple(sorted(self.rhombi)))

    def __eq__(self, other):
        if not isinstance(other, Puzzle):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    # -- structure ---------------------------------------------------------

    def covered_cells(self) -> tuple[frozenset[tuple[int, int]], frozenset[tuple[int, int]]]:
        """(up-cells, down-cells) covered by rhombi."""
        return self.rhombi, frozenset((x, yy + 1) for x, yy in self.rhombi)

    def boundary(self):
        """The border strings ``(u, v, w)``: the labels at ``border_edge``."""
        get = self.labels.__getitem__
        u, v, w = board_table(self.n).border
        return (tuple(map(get, u)), tuple(map(get, v)), tuple(map(get, w)))

    def pieces(self) -> list[tuple[str, tuple[int, int], tuple[int, ...]]]:
        """The tiling's pieces ``(kind, anchor, labels)`` in the
        piece-list JSON order: the rhombi ``("R", (x, y), (p, q))``,
        sorted; then the up-triangles ``("U", (x, y), (left, right,
        bottom))`` and the down-triangles ``("D", (x, y), (nw, ne,
        top))`` that no rhombus covers."""
        labels, rhombi = self.labels, self.rhombi
        out = []
        for r in sorted(rhombi):
            (p, _), (q, _) = rhombus_outer_edges(r)
            out.append(("R", r, (labels[p], labels[q])))
        for kind, cell, (a, b, c), cover in board_table(self.n).cells:
            if cover not in rhombi:
                out.append((kind, cell, (labels[a], labels[b], labels[c])))
        return out

    def validate(self) -> list[str]:
        """Empty list iff the labeling is a valid puzzle."""
        n, labels, rhombi = self.n, self.labels, self.rhombi
        board = board_table(n)
        out: list[str] = []
        if not rhombi <= board.anchors:
            out = [f"rhombus {r} leaves the board" for r in sorted(rhombi - board.anchors)]
        # with every rhombus on the board, each leaves one edge unlabeled
        if out or len(board.edges.difference(labels)) != len(rhombi):
            known = {rhombus_inner_edge(r) for r in rhombi} | labels.keys()
            out += [f"unlabeled edge {e}" for e in all_edges(n) if e not in known]
            if out:
                return out
        t = tables()
        for kind, cell, lab in self.pieces():
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
        for s in self.boundary():
            for l in s:
                if l not in SIMPLE:
                    out.append(f"composed label {l} on the boundary")
        return out

    # -- weights -----------------------------------------------------------

    def weight(self) -> YPoly:
        """Product of the rhombus weights."""
        out = YPoly.const(1)
        for x, yy in sorted(self.rhombi):
            out = out * rhombus_weight(x, yy, self.n)
        return out

    # -- symmetries --------------------------------------------------------

    def dual(self) -> "Puzzle":
        """Reflect in a vertical line and substitute dual labels."""
        n = self.n
        labels: dict[Edge, int] = {}
        for x, yy in up_cells(n):
            if ("A", x, yy) in self.labels:
                labels[("B", yy - x, yy)] = dual_label(self.labels[("A", x, yy)])
            if ("B", x, yy) in self.labels:
                labels[("A", yy - x, yy)] = dual_label(self.labels[("B", x, yy)])
            if ("H", x, yy) in self.labels:
                labels[("H", yy - x, yy)] = dual_label(self.labels[("H", x, yy)])
        rhombi = frozenset((yy - x, yy) for x, yy in self.rhombi)
        return Puzzle(n, labels, rhombi)


# ---------------------------------------------------------------------------
# Serialization


def puzzle_to_json(P: Puzzle) -> str:
    """Serialize to the piece-list JSON schema (deterministic order)."""
    pieces = [
        {
            "kind": "rhombus" if kind == "R" else "triangle",
            "orientation": 3 if kind == "D" else 0,
            "anchor": list(anchor),
            "labels": list(lab),
        }
        for kind, anchor, lab in P.pieces()
    ]
    return json.dumps({"region": [P.n, 0, P.n, 0, P.n, 0], "pieces": pieces})


def puzzle_from_json(text: str) -> Puzzle:
    """Parse the piece-list JSON schema back into a puzzle.

    Each piece must lie on the board, cover no cell that another piece
    covers, carry three labels (a triangle) or two (a rhombus), and
    agree with the pieces next to it on their shared edges.  A rhombus
    must be vertical (orientation 0).  Anything else is a ``ValueError``.
    """
    data = json.loads(text)
    region = data["region"]
    nonzero = [s for s in region if s]
    if len(region) != 6 or len(nonzero) != 3 or len(set(nonzero)) != 1:
        raise ValueError("only triangular regions are supported")
    n = nonzero[0]
    if type(n) is not int:
        raise ValueError(f"region side {n!r} is not an integer")
    if n > NVARS:
        raise ValueError(f"region side {n}: the variables are y1 .. y{NVARS}")
    labels: dict[Edge, int] = {}
    rhombi: set[Rhombus] = set()
    covered: set[tuple[str, int, int]] = set()
    for piece in data["pieces"]:
        x, yy = piece["anchor"]
        kind = piece["kind"]
        lab = piece["labels"]
        orient = piece.get("orientation", 0)
        if not all(type(k) is int for k in (x, yy, orient, *lab)):
            raise ValueError(f"non-integer anchor, orientation or label in {piece!r}")
        if kind == "rhombus":
            if orient % 6:
                raise ValueError(f"rhombus at {(x, yy)} has orientation {orient}, not 0")
            cells = [("U", x, yy), ("D", x, yy + 1)]
            sides = rhombus_outer_edges((x, yy))
            rhombi.add((x, yy))
        elif kind == "triangle" and orient % 6 in (0, 3):
            cells = [("U" if orient % 6 == 0 else "D", x, yy)]
            sides = tuple((e,) for e in cell_sides(cells[0]))
        else:
            raise ValueError(f"bad piece {piece!r}")
        if len(lab) != len(sides):
            raise ValueError(f"a {kind} takes {len(sides)} labels: {piece!r}")
        for cell in cells:
            if not on_board(cell, n):
                raise ValueError(f"piece {piece!r} leaves the board")
            if cell in covered:
                raise ValueError(f"two pieces cover cell {cell}")
            covered.add(cell)
        for side, l in zip(sides, lab):
            for e in side:
                if labels.setdefault(e, l) != l:
                    raise ValueError(f"edge {e} is labeled both {labels[e]} and {l}")
    return Puzzle(n, labels, frozenset(rhombi))


# ---------------------------------------------------------------------------
# Rendering


def render_text(P: Puzzle) -> str:
    """n text lines, bottom row first; up-cells as ``left.bottom.right``
    triples, rhombus-covered cells bracketed."""
    ups, _ = P.covered_cells()
    lines = []
    for yy in range(P.n - 1, -1, -1):
        cells = []
        for x in range(yy + 1):
            l = P.labels.get(("A", x, yy), "*")
            rr = P.labels.get(("B", x, yy), "*")
            h = P.labels.get(("H", x, yy), "*")
            if (x, yy) in ups:
                cells.append(f"[{l}.{h}.{rr}]")
            else:
                cells.append(f"{l}.{h}.{rr}")
        lines.append(" ".join(str(c) for c in cells))
    return "\n".join(lines)


_SCALE = 40.0  # SVG units per edge


def _vertex_xy(x: int, yy: int) -> tuple[float, float]:
    return (_SCALE * (x - yy / 2.0), _SCALE * yy * 0.8660254)


def render_svg(P: Puzzle) -> str:
    """Render to SVG: triangles outlined, rhombi shaded."""
    n = P.n
    parts: list[str] = []

    def pt(p):
        return f"{p[0] + _SCALE * n / 2 + 10:.1f},{p[1] + 10:.1f}"

    def poly(points, fill):
        pts = " ".join(pt(p) for p in points)
        parts.append(
            f'<polygon points="{pts}" fill="{fill}" stroke="black" stroke-width="1"/>'
        )

    def text(px, py, s):
        parts.append(
            f'<text x="{px + _SCALE * n / 2 + 10:.1f}" y="{py + 10:.1f}" '
            f'font-size="9" fill="black" text-anchor="middle">{s}</text>'
        )

    for kind, (x, yy), lab in P.pieces():
        if kind == "R":
            quad = {
                _vertex_xy(x, yy),
                _vertex_xy(x, yy + 1),
                _vertex_xy(x + 1, yy + 1),
                _vertex_xy(x + 1, yy + 2),
            }
            # order the corners around the centroid: float rounding makes
            # the order start at the lower-left corner for some (x, y), and
            # the sums run in the set's order (both fix the SVG bytes)
            cx = sum(p[0] for p in quad) / 4
            cy = sum(p[1] for p in quad) / 4
            ordered = sorted(quad, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
            poly(ordered, "#c8d8ff")
            text(cx, cy, f"{lab[0]}/{lab[1]}")
        elif kind == "U":
            a = _vertex_xy(x, yy)
            bl = _vertex_xy(x, yy + 1)
            br = _vertex_xy(x + 1, yy + 1)
            poly([a, bl, br], "white")
            left, right, bottom = lab
            text((bl[0] + br[0]) / 2, bl[1] - 3, str(bottom))
            text((a[0] + bl[0]) / 2 - 6, (a[1] + bl[1]) / 2 + 3, str(left))
            text((a[0] + br[0]) / 2 + 6, (a[1] + br[1]) / 2 + 3, str(right))
        else:
            poly([_vertex_xy(x, yy), _vertex_xy(x + 1, yy), _vertex_xy(x + 1, yy + 1)], "white")
    size = _SCALE * (n + 1) + 20
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}">' + "".join(parts) + "</svg>"
    )


if __name__ == "__main__":
    import doctest

    doctest.testmod()
