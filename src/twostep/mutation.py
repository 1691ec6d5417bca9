"""Gashes, flaws, and the puzzle mutation algorithm.

A *directed gash* is an edge whose two sides carry different labels,
together with a direction perpendicular to the edge; the label the
direction points to is the *original* label, the other one the *new*
label.  Abstractly a gash is a triple ``(d, orig, new)`` where the
direction makes the angle ``(2d + 1) * 30`` degrees with the positive
x-axis (y axis pointing up), so ``d`` also determines the edge axis:
``d in (1, 4)`` horizontal, ``d in (0, 3)`` NW-SE, ``d in (2, 5)``
SW-NE.  There are ``6 * 8 * 7 = 336`` directed gashes.

Propagation moves a gash across the piece it points at: across a
rhombus it slides to the opposite side unchanged (when the modified
rhombus is still a valid piece), and across a triangle there is at most
one valid replacement piece (so at most one move).  The replacement
table, the classes of the reachability relation, the temporary-piece
table, and the scab table are all *computed* from the triangle/rhombus
tables rather than transcribed; :class:`~.labels.PieceTables` derives
and keeps them, and the functions here read them from the current
``tables()`` value.

A *gashed puzzle* is a :class:`~.board.Puzzle` plus two directed
gashes, and a *flawed puzzle* is a ``Puzzle`` plus exactly one flaw: a
gash pair on a border segment, a temporary piece, or a marked scab.
The ``Puzzle`` holds the labels and rhombi and decides identity; cell
sides, the cell a gash points at, and border edges and positions are
read from :mod:`~.board`, the first two from the per-size
``board_table``.  A gash sits on a border, pointing in, exactly when no
cell lies behind it.
Replacing the flaw by two directed gashes gives its *resolutions*;
``phi`` propagates both gashes to their fixed points and reverses them,
which is an involution whose value is a resolution of a unique other
(or the same) flawed puzzle.  ``mutate`` composes these steps,
``mutation_component`` explores the resulting trivalent graph, and
``psi``/``psi_infinity`` implement the left-to-right sliding bijection.

>>> g = (1, 1, 0)
>>> sorted(gash_class(g))
[(0, 3, 0), (1, 1, 0), (1, 6, 5), (2, 1, 3), (2, 4, 5), (3, 4, 6)]
>>> opposite((1, 1, 0))
(1, 0, 1)
>>> len(all_directed_gashes())
336
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .board import (
    DIR_C,
    DIR_S,
    Edge,
    InvariantViolation,
    Puzzle,
    board_table,
    border_edge,
    border_position,
    cell_sides,
    edge_midpoint,
    on_board,
    puzzle_to_json,
    rhombus_outer_edges,
)
from .labels import OUT, SIMPLE, AbstractGash, PieceTables, dual_label, tables
from .search import enumerate_one_special, enumerate_puzzles
from .strings import String012, covers, fmt, neighbours

__all__ = [
    "AbstractGash",
    "PlacedGash",
    "GashedPuzzle",
    "FlawedPuzzle",
    "FlawRecognitionError",
    "all_directed_gashes",
    "immediate_moves",
    "gash_class",
    "opposite",
    "temporary_table",
    "down_temporary_table",
    "scab_table",
    "scab_positions",
    "propagate_full",
    "phi",
    "recognize_flaw",
    "mutate",
    "mutations",
    "mutation_component",
    "component_to_json",
    "component_to_dot",
    "right_gash",
    "forward_gashes",
    "backward_gashes",
    "psi",
    "psi_infinity",
    "enumerate_flawed",
    "flawed_to_json",
    "dual_flawed",
]

class PlacedGash(NamedTuple):
    """A directed gash at a specific edge of a board."""

    edge: Edge
    d: int
    orig: int
    new: int

    @property
    def abstract(self) -> AbstractGash:
        return (self.d, self.orig, self.new)

    def reverse(self) -> "PlacedGash":
        return PlacedGash(self.edge, (self.d + 3) % 6, self.new, self.orig)


# ---------------------------------------------------------------------------
# Abstract gashes and their classes


def all_directed_gashes() -> list[AbstractGash]:
    return [
        (d, a, b) for d in range(6) for a in range(8) for b in range(8) if a != b
    ]


def opposite(g: AbstractGash) -> AbstractGash:
    """Interchange the labels, keeping the direction.

    >>> opposite((2, 4, 5))
    (2, 5, 4)
    """
    d, a, b = g
    return (d, b, a)


# ---------------------------------------------------------------------------
# Derived tables, read from the current ``tables()`` value


def immediate_moves() -> frozenset[tuple[AbstractGash, AbstractGash]]:
    """The symmetric "immediately reachable" relation on directed gashes."""
    return tables().moves


def gash_class(g: AbstractGash) -> frozenset[AbstractGash]:
    """All directed gashes reachable from ``g`` by propagations."""
    return tables().gash_classes[g]


def temporary_table() -> dict:
    """Temporary up-triangles ``(left, right, bottom)`` -> resolutions."""
    return tables().temporaries


def down_temporary_table() -> dict:
    """Temporary down-triangles ``(nw, ne, top)`` -> resolutions."""
    return tables().down_temporaries


def _temporaries(t: PieceTables, kind: str) -> dict:
    """The temporary pieces of a ``"U"`` or ``"D"`` cell -> resolutions."""
    return t.temporaries if kind == "U" else t.down_temporaries


def scab_table() -> dict:
    """Scabs ``(NW, NE, SE, SW)`` -> their unique resolution."""
    return tables().scabs


def forward_gashes() -> frozenset[AbstractGash]:
    """The gashes whose resolutions slide labels to the right."""
    return tables().forward_gashes


def backward_gashes() -> frozenset[AbstractGash]:
    return tables().backward_gashes


# ---------------------------------------------------------------------------
# Scabs (vertical two-triangle rhombi that are not 180-degree symmetric)


def scab_positions(P: Puzzle) -> list[tuple[int, int]]:
    """Anchors ``(x, y)`` of all scabs in a puzzle: vertically adjacent
    triangle pairs that are not 180-degree rotations of each other."""
    scabs = tables().scabs
    out = []
    for yy in range(P.n - 1):
        for x in range(yy + 1):
            if (x, yy) in P.rhombi:  # the pair is a rhombus
                continue
            if _scab_at(P.labels, x, yy) in scabs:
                out.append((x, yy))
    return out


def _scab_edges(x: int, yy: int) -> tuple[Edge, Edge, Edge, Edge]:
    """(NW, NE, SE, SW) sides of the triangle pair U(x,y), D(x,y+1)."""
    (ne, sw), (nw, se) = rhombus_outer_edges((x, yy))
    return (nw, ne, se, sw)


def _scab_at(labels: dict, x: int, yy: int) -> tuple[int, int, int, int]:
    """(NW, NE, SE, SW) labels of the triangle pair U(x,y), D(x,y+1)."""
    nw, ne, se, sw = _scab_edges(x, yy)
    return (labels[nw], labels[ne], labels[se], labels[sw])


# ---------------------------------------------------------------------------
# Gashed puzzles and propagation


@dataclass(frozen=True)
class GashedPuzzle:
    """A :class:`~.board.Puzzle` plus two directed gashes: a resolution
    of a flaw, or a state of its propagation.

    ``base.labels`` omits the gash edges; each gash carries both side
    labels (the piece it points at contributes the original label, the
    piece behind it the new label).
    """

    base: Puzzle
    gashes: frozenset


class FlawRecognitionError(Exception):
    """The two stuck gashes do not form a recognizable flaw (this would
    contradict the uniqueness theorem for mutations), or a gash-pair
    flaw's border strings do not form a Bruhat cover."""


def _step(
    rhombi: frozenset, labels: dict, g: PlacedGash, blocked: set, t: PieceTables, ahead: dict
) -> Optional[PlacedGash]:
    """Move ``g`` across the piece it points at, editing ``labels`` in
    place: the labels of the puzzle with ``rhombi`` less the gash edges
    in ``blocked``, with ``g.orig`` on ``g``'s edge.  ``ahead`` is the
    board's ``board_table(n).ahead``.  Returns the moved gash, or None
    when ``g`` is stuck: at the border, at a piece with an edge in
    ``blocked`` (another gash), or with no valid replacement."""
    hit = ahead[g.edge, g.d]
    if hit is None:
        return None
    (kind, _, edges, r), s = hit
    if r in rhombi:
        p_pair, q_pair = rhombus_outer_edges(r)
        if blocked.intersection(p_pair + q_pair):
            return None
        pair, other = (p_pair, q_pair) if g.edge in p_pair else (q_pair, p_pair)
        exit_edge = pair[1] if pair[0] == g.edge else pair[0]
        if labels[exit_edge] != g.orig:
            raise InvariantViolation(f"gash {g} disagrees with rhombus {r}")
        kept = labels[other[0]]
        if ((g.new, kept) if pair is p_pair else (kept, g.new)) not in t.rhombi:
            return None
        ng = PlacedGash(exit_edge, g.d, g.orig, g.new)
    else:
        if blocked.intersection(edges):
            return None
        a, b, c = edges
        piece = (labels[a], labels[b], labels[c])
        hit = t.replacements.get((kind, piece, s, g.new))
        if hit is None:
            if not t.valid(kind, piece):
                raise InvariantViolation(f"gash {g} points at invalid piece {piece}")
            return None
        s2, new = hit
        ng = PlacedGash(edges[s2], OUT[kind][s2], piece[s2], new)
    labels[g.edge] = g.new  # the moved gash's edge already holds ng.orig
    return ng


def propagate_full(
    G: GashedPuzzle, g: PlacedGash
) -> tuple[GashedPuzzle, PlacedGash, list[Edge]]:
    """Propagate until stuck; returns the final state, the final gash,
    and the path of gashed edges (raising if an edge repeats).  The
    state is ``G`` itself when the gash does not move."""
    if g not in G.gashes:
        raise ValueError(f"gash {g} is not in this gashed puzzle")
    B, t = G.base, tables()
    ahead, labels = board_table(B.n).ahead, B.labels.copy()
    labels[g.edge] = g.orig
    blocked = {h.edge for h in G.gashes if h != g}
    path, f = [g.edge], g
    while (moved := _step(B.rhombi, labels, f, blocked, t, ahead)) is not None:
        if moved.edge in path:
            raise InvariantViolation(f"propagation revisited edge {moved.edge}")
        path.append(moved.edge)
        f = moved
    if f is g:
        return G, g, path
    del labels[f.edge]
    return GashedPuzzle(Puzzle(B.n, labels, B.rhombi), (G.gashes - {g}) | {f}), f, path


def phi(G: GashedPuzzle) -> GashedPuzzle:
    """Propagate both gashes to their fixed points and reverse them."""
    g1, g2 = sorted(G.gashes)
    G1, f1, p1 = propagate_full(G, g1)
    G2, f2, p2 = propagate_full(G1, g2)
    if not set(p1).isdisjoint(p2):
        raise InvariantViolation("propagation paths are not disjoint")
    return GashedPuzzle(G2.base, frozenset({f1.reverse(), f2.reverse()}))


# ---------------------------------------------------------------------------
# Flawed puzzles


@dataclass(frozen=True)
class FlawedPuzzle:
    """A puzzle with exactly one flaw: a :class:`~.board.Puzzle` plus
    the flaw.

    ``base.labels`` holds the interior ("inner") labels everywhere.  The
    flaw is one of:

    - ``("gashpair", (border, ((i, outer_i), (j, outer_j))))`` with
      border ``"u"``/``"v"``/``"w"`` and 1-based positions whose outer
      labels differ from the inner ones;
    - ``("temporary", (kind, x, y))`` marking the cell holding the
      temporary piece;
    - ``("scab", (x, y))`` marking the scab made of U(x,y) and D(x,y+1).
    """

    base: Puzzle
    flaw: tuple

    @property
    def flaw_type(self) -> str:
        return self.flaw[0]

    def boundary(self):
        """The outer boundary strings (u, v, w)."""
        u, v, w = (list(s) for s in self.base.boundary())
        if self.flaw_type == "gashpair":
            border, positions = self.flaw[1]
            s = {"u": u, "v": v, "w": w}[border]
            for i, outer in positions:
                s[i - 1] = outer
        return tuple(u), tuple(v), tuple(w)

    def cover_edge(self):
        """For a gash-pair flaw: the border name and the Bruhat cover
        linking the longer and shorter boundary strings."""
        if self.flaw_type != "gashpair":
            raise ValueError("not a gash-pair flaw")
        border = self.flaw[1][0]
        iu, iv, iw = self.base.boundary()
        ou, ov, ow = self.boundary()
        if border == "u":
            pre, post = ou, iu  # outer -> inner is a cover
        elif border == "v":
            pre, post = ov, iv
        else:
            pre, post = iw, ow  # inner -> outer is a cover
        for ce in covers(pre):
            if ce.after == post:
                return border, ce
        raise FlawRecognitionError(
            f"border {border} strings {fmt(pre)} and {fmt(post)} do not form a cover"
        )

    def validate(self) -> list[str]:
        """Empty list iff this is a valid flawed puzzle.  Never raises
        for a flaw of one of the three shapes: a flaw off the board or
        on an unlabeled edge is reported as a violation."""
        n, labels = self.base.n, self.base.labels
        kind, data = self.flaw
        if kind == "gashpair":
            border, positions = data
            where = [i for i, _ in positions]
            if border not in ("u", "v", "w"):
                return [f"unknown border {border!r}"]
            if len(set(where)) != 2 or not all(1 <= i <= n for i in where):
                return [f"gash positions {where} are not two positions in 1..{n}"]
            bad = [l for _, l in positions if l not in SIMPLE]
            if bad:
                return [f"outer boundary label {l} is not simple" for l in bad]
            edges = [border_edge(border, i, n)[0] for i in where]
        elif kind == "temporary":
            if not on_board(data, n):
                return [f"cell {data} is not on the board"]
            ck, x, yy = data
            edges = cell_sides(data)
        elif kind == "scab":
            x, yy = data
            if not 0 <= x <= yy <= n - 2:
                return [f"scab anchor {data} is not on the board"]
            edges = _scab_edges(x, yy)
        else:
            return [f"unknown flaw {self.flaw!r}"]
        unlabeled = [e for e in edges if e not in labels]
        if unlabeled:
            return [f"flaw edge {e} is unlabeled" for e in unlabeled]
        out = []
        problems = self.base.validate()
        if kind == "gashpair":
            out.extend(problems)
            if not problems:
                try:
                    self.cover_edge()
                except FlawRecognitionError as e:
                    out.append(str(e))
        elif kind == "temporary":
            triple = tuple(labels[e] for e in edges)
            if triple not in _temporaries(tables(), ck):
                out.append(f"cell {data} does not hold a temporary piece")
            expect = f"invalid {'up' if ck == 'U' else 'down'}-triangle " \
                f"{triple} at {(x, yy)}"
            out.extend(p for p in problems if p != expect)
        else:
            out.extend(problems)
            s = _scab_at(labels, x, yy)
            if s not in tables().scabs:
                out.append(f"marked rhombus {s} at {(x, yy)} is not a scab")
        return out

    # -- resolutions -------------------------------------------------------

    def resolutions(self) -> list[GashedPuzzle]:
        """Gash pair and marked scab have one resolution; a temporary
        piece has three, ordered by its preserved side."""
        n, rhombi = self.base.n, self.base.rhombi
        if self.flaw_type == "gashpair":
            border, positions = self.flaw[1]
            labels = self.base.labels.copy()
            gashes = set()
            for i, outer in positions:
                edge, d = border_edge(border, i, n)
                gashes.add(PlacedGash(edge, d, labels.pop(edge), outer))
            return [GashedPuzzle(Puzzle(n, labels, rhombi), frozenset(gashes))]
        if self.flaw_type == "temporary":
            kind = self.flaw[1][0]
            edges = cell_sides(self.flaw[1])
            piece = tuple(self.base.labels[e] for e in edges)
            outs = OUT[kind]
            res = []
            for k, r in enumerate(_temporaries(tables(), kind)[piece]):  # side k is preserved
                labels = self.base.labels.copy()
                gashes = set()
                for s in {0, 1, 2} - {k}:
                    del labels[edges[s]]
                    gashes.add(PlacedGash(edges[s], outs[s], piece[s], r[s]))
                res.append(GashedPuzzle(Puzzle(n, labels, rhombi), frozenset(gashes)))
            return res
        if self.flaw_type == "scab":
            x, yy = self.flaw[1]
            labels = self.base.labels.copy()
            side, (p, q) = tables().scabs[_scab_at(labels, x, yy)]
            # the gashes are the right sides (NE, SE) of both cells if the
            # resolution agrees on the left ("L"), else the left sides;
            # a NW-SE ("B") side takes p, a SW-NE ("A") side q
            s = 1 if side == "L" else 0
            gashes = set()
            for cell in (("U", x, yy), ("D", x, yy + 1)):
                e = cell_sides(cell)[s]
                gashes.add(PlacedGash(e, OUT[cell[0]][s], labels.pop(e), p if e[0] == "B" else q))
            # H(x,y) becomes the rhombus interior, which Puzzle drops
            base = Puzzle(n, labels, rhombi | {(x, yy)})
            return [GashedPuzzle(base, frozenset(gashes))]
        raise ValueError(f"unknown flaw {self.flaw!r}")


def recognize_flaw(G: GashedPuzzle) -> FlawedPuzzle:
    """The unique flawed puzzle having ``G`` as a resolution.  Tries, in
    order: gash pair on a border segment, temporary-piece resolution,
    scab resolution."""
    g1, g2 = sorted(G.gashes)
    B = G.base
    n, rhombi = B.n, B.rhombi
    # the inner labels: each gash edge gets the label it points at
    labels = B.labels.copy()
    labels[g1.edge] = g1.orig
    labels[g2.edge] = g2.orig
    # the cell behind each gash, and the side of it the gash lies on
    ahead = board_table(n).ahead
    h1, h2 = ahead[g1.edge, (g1.d + 3) % 6], ahead[g2.edge, (g2.d + 3) % 6]
    if h1 is None and h2 is None:  # both on a border, pointing in
        (b1, i1), (b2, i2) = border_position(g1.edge, n), border_position(g2.edge, n)
        if b1 == b2:
            positions = tuple(sorted(((i1, g1.new), (i2, g2.new))))
            P = FlawedPuzzle(Puzzle(n, labels, rhombi), ("gashpair", (b1, positions)))
            P.cover_edge()  # raises if the strings do not form a cover
            return P
    elif h1 is not None and h2 is not None:
        (c1, s1), (c2, s2) = h1, h2
        if c1 == c2 and c1.cover not in rhombi:
            kind, (x, yy), edges, _ = c1
            k = 3 - s1 - s2  # the side that keeps its label
            tri = tuple(labels[e] for e in edges)
            r = tuple(g1.new if i == s1 else g2.new if i == s2 else tri[i] for i in range(3))
            table = _temporaries(tables(), kind)
            if tri in table and table[tri][k] == r:
                return FlawedPuzzle(Puzzle(n, labels, rhombi), ("temporary", (kind, x, yy)))
        elif c1.cover == c2.cover and c1.cover in rhombi:
            x, yy = c1.cover
            s, t = _scab_at(labels, x, yy), tables()
            if s in t.scabs:
                # every scab's up-triangle (NW, NE, top) is a valid piece
                labels[("H", x, yy)] = dict(t.up_by_left[s[0]])[s[1]]
                return FlawedPuzzle(Puzzle(n, labels, rhombi - {c1.cover}), ("scab", (x, yy)))
    raise FlawRecognitionError(f"stuck gashes {sorted(G.gashes)} match no flaw")


# ---------------------------------------------------------------------------
# Mutation


def mutate(P: FlawedPuzzle, choice: int = 0) -> FlawedPuzzle:
    """The flawed puzzle whose resolution is ``phi`` of the chosen
    resolution of ``P``; ``choice`` must index one of its resolutions."""
    res = P.resolutions()
    if not 0 <= choice < len(res):
        raise ValueError(
            f"choice {choice} is out of range; "
            f"a {P.flaw_type} flaw has {len(res)} resolution(s)"
        )
    return recognize_flaw(phi(res[choice]))


def mutations(P: FlawedPuzzle) -> list[FlawedPuzzle]:
    """The mutations of ``P``, one per resolution."""
    return [recognize_flaw(phi(R)) for R in P.resolutions()]


def mutation_component(
    P: FlawedPuzzle,
) -> dict[FlawedPuzzle, list[FlawedPuzzle]]:
    """Adjacency mapping of the connected mutation-graph component of
    ``P`` (each node maps to its mutations, one per resolution)."""
    graph: dict[FlawedPuzzle, list[FlawedPuzzle]] = {}
    queue = [P]
    while queue:
        Q = queue.pop()
        if Q in graph:
            continue
        graph[Q] = mutations(Q)
        queue.extend(R for R in graph[Q] if R not in graph)
    return graph


def _ordered(graph: dict) -> tuple[list[FlawedPuzzle], dict[FlawedPuzzle, int]]:
    """The nodes in output order, and each node's index in it."""
    nodes = sorted(graph, key=lambda P: (P.base.key, P.flaw))
    return nodes, {P: i for i, P in enumerate(nodes)}


def component_to_json(graph: dict) -> str:
    nodes, index = _ordered(graph)
    return json.dumps(
        {
            "nodes": [json.loads(flawed_to_json(P)) for P in nodes],
            "edges": [
                {"from": index[P], "choice": c, "to": index[Q]}
                for P in nodes
                for c, Q in enumerate(graph[P])
            ],
        }
    )


def component_to_dot(graph: dict) -> str:
    nodes, index = _ordered(graph)
    lines = ["graph mutation_component {"]
    for P in nodes:
        lines.append(f'  n{index[P]} [label="{P.flaw_type}"];')
    seen = set()
    for P in nodes:
        for Q in graph[P]:
            key = tuple(sorted((index[P], index[Q])))
            if key not in seen:
                seen.add(key)
                lines.append(f"  n{key[0]} -- n{key[1]};")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Right gashes and the sliding bijection


def right_gash(G: GashedPuzzle) -> PlacedGash:
    """The rightmost of the two gashes, as seen by an observer standing
    between them and facing the direction of the gashes.

    The side is the sign of the cross product of the summed gash
    directions with the vector from the second gash to the first; scaled
    by 8, that product is the integer ``cross``.
    """
    g1, g2 = sorted(G.gashes)
    X1, Y1 = edge_midpoint(g1.edge)
    X2, Y2 = edge_midpoint(g2.edge)
    c = DIR_C[g1.d] + DIR_C[g2.d]
    s = DIR_S[g1.d] + DIR_S[g2.d]
    cross = 3 * c * (Y1 - Y2) - s * (X1 - X2)
    if cross == 0:
        raise InvariantViolation("gash positions are collinear with the direction")
    return g1 if cross < 0 else g2


def _arrow_resolutions(P: FlawedPuzzle, pool: frozenset) -> list[GashedPuzzle]:
    return [R for R in P.resolutions() if right_gash(R).abstract in pool]


def in_forward_set(P: FlawedPuzzle) -> bool:
    return bool(_arrow_resolutions(P, forward_gashes()))


def in_backward_set(P: FlawedPuzzle) -> bool:
    return bool(_arrow_resolutions(P, backward_gashes()))


def psi(P: FlawedPuzzle) -> FlawedPuzzle:
    """One sliding step: mutate along the unique resolution whose right
    gash is a forward gash."""
    Rs = _arrow_resolutions(P, forward_gashes())
    if not Rs:
        raise ValueError("puzzle has no forward resolution")
    if len(Rs) > 1:
        raise InvariantViolation("forward resolution is not unique")
    return recognize_flaw(phi(Rs[0]))


def psi_infinity(P: FlawedPuzzle) -> FlawedPuzzle:
    """Iterate ``psi`` until the result has no forward resolution."""
    Q = psi(P)
    while in_forward_set(Q):
        Q = psi(Q)
    return Q


# ---------------------------------------------------------------------------
# Enumeration of flawed puzzles


def enumerate_flawed(
    u: String012, v: String012, w: String012
) -> Iterator[FlawedPuzzle]:
    """All flawed puzzles whose outer boundary is ``(u, v, w)``:
    gash pairs on each border, marked scabs, and temporary pieces."""
    outers = {"u": u, "v": v, "w": w}
    # a gash pair's inner strings are a Bruhat neighbour of (u, v, w)
    for border, ce, inner in neighbours(u, v, w):
        positions = tuple(sorted((i + 1, outers[border][i]) for i in (ce.i, ce.j)))
        for P in enumerate_puzzles(*inner):
            yield FlawedPuzzle(P, ("gashpair", (border, positions)))
    for P in enumerate_puzzles(u, v, w):
        for x, yy in scab_positions(P):
            yield FlawedPuzzle(P, ("scab", (x, yy)))
    for P, cell in enumerate_one_special(u, v, w):
        yield FlawedPuzzle(P, ("temporary", cell))


# ---------------------------------------------------------------------------
# Dualization and serialization


def dual_flawed(P: FlawedPuzzle) -> FlawedPuzzle:
    """Reflect the flawed puzzle and dualize all labels."""
    n = P.base.n
    kind, data = P.flaw
    if kind == "gashpair":
        border, positions = data
        new_border = {"u": "v", "v": "u", "w": "w"}[border]
        new_positions = tuple(
            sorted((n + 1 - i, dual_label(l)) for i, l in positions)
        )
        flaw = ("gashpair", (new_border, new_positions))
    elif kind == "temporary":
        ck, x, yy = data
        flaw = (
            "temporary",
            (ck, yy - x, yy) if ck == "U" else (ck, yy - 1 - x, yy),
        )
    else:
        x, yy = data
        flaw = ("scab", (yy - x, yy))
    return FlawedPuzzle(P.base.dual(), flaw)


def flawed_to_json(P: FlawedPuzzle) -> str:
    base = json.loads(puzzle_to_json(P.base))
    kind, data = P.flaw
    if kind == "gashpair":
        border, positions = data
        flaw = {"type": kind, "border": border, "outer": [list(p) for p in positions]}
    elif kind == "temporary":
        flaw = {"type": kind, "cell": list(data)}
    else:
        flaw = {"type": kind, "anchor": list(data)}
    base["flaw"] = flaw
    return json.dumps(base)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
