"""The backtracking puzzle enumerator, kept as an independent reference.

The library lists puzzles by a walk over the row states of its
row-transfer pass (``twostep.search``).  This module keeps the
row-by-row backtracking sweep it replaced, so that the differential
tests compare the walk, and the row-transfer products, with a search
that shares none of their code: within row ``y`` it decides
``U(0,y), D(0,y), U(1,y), ..., U(y,y)`` in order, keeping one mutable
label dict and undoing the labels each branch placed.  It also keeps
``restriction_puzzle``, a direct construction of the one puzzle with
boundary ``(w, w, w)``, and ``bottom_rows``, the row-transfer product
pass as it was before it weighed only live states: one dense top-down
pass that carries every partial state to the last row.
"""

from __future__ import annotations

from typing import Iterator

from twostep.algebra import YPoly, y
from twostep.board import (
    Edge,
    InvariantViolation,
    Puzzle,
    down_cell_edges,
    rhombus_outer_edges,
    rhombus_position,
    up_cell_edges,
)
from twostep.labels import LABELS, tables
from twostep.strings import String012, content


def _cell_order(n: int) -> list[tuple[str, int, int]]:
    cells: list[tuple[str, int, int]] = []
    for yy in range(n):
        for x in range(yy + 1):
            cells.append(("U", x, yy))
            if x < yy:
                cells.append(("D", x, yy))
    return cells


def enumerate_puzzles(u: String012, v: String012, w: String012) -> Iterator[Puzzle]:
    """Yield all puzzles with boundary ``(u, v, w)`` in deterministic order."""
    for P, _ in _enumerate(u, v, w):
        yield _checked(P)


def _checked(P: Puzzle) -> Puzzle:
    problems = P.validate()
    if problems:
        raise InvariantViolation(f"built an invalid puzzle: {problems}")
    return P


def enumerate_one_special(
    u: String012,
    v: String012,
    w: String012,
    special_up: set[tuple[int, int, int]],
    special_down: set[tuple[int, int, int]],
) -> Iterator[tuple[Puzzle, tuple[str, int, int]]]:
    """Yield ``(tiling, cell)`` pairs for every tiling of the boundary that
    uses the ordinary pieces everywhere except at exactly one cell, which
    holds a triple from ``special_up`` (as ``(left, right, bottom)``) or
    ``special_down`` (as ``(nw, ne, top)``)."""
    for P, cell in _enumerate(u, v, w, special_up, special_down):
        if cell is not None:
            yield P, cell


def _enumerate(
    u: String012,
    v: String012,
    w: String012,
    special_up: set[tuple[int, int, int]] | None = None,
    special_down: set[tuple[int, int, int]] | None = None,
) -> Iterator[tuple[Puzzle, tuple[str, int, int] | None]]:
    n = len(u)
    if not (len(v) == len(w) == n):
        raise ValueError("boundary strings must have equal length")
    if not (content(u) == content(v) == content(w)):
        return
    t = tables()
    up_list, down_list, rhombi_by_q = t.up_list, t.down_list, t.rhombi_by_q
    sp_up = sorted(special_up or ())
    sp_down = sorted(special_down or ())

    labels: dict[Edge, int] = {}
    for i in range(1, n + 1):
        labels[("A", 0, n - i)] = u[i - 1]
        labels[("B", i - 1, i - 1)] = v[i - 1]
        labels[("H", i - 1, n - 1)] = w[i - 1]
    covered: set[tuple[int, int]] = set()
    rhombi: list[tuple[int, int]] = []
    special: list[tuple[str, int, int]] = []
    cells = _cell_order(n)

    def set_edges(pairs: list[tuple[Edge, int]]) -> list[Edge] | None:
        """Place labels, returning the edges newly set (None on conflict)."""
        placed: list[Edge] = []
        for e, val in pairs:
            if e in labels:
                if labels[e] != val:
                    for d in placed:
                        del labels[d]
                    return None
            else:
                labels[e] = val
                placed.append(e)
        return placed

    def solve(idx: int) -> Iterator[tuple[Puzzle, tuple[str, int, int] | None]]:
        if idx == len(cells):
            P = Puzzle(n, dict(labels), frozenset(rhombi))
            yield P, (special[0] if special else None)
            return
        kind, x, yy = cells[idx]
        if kind == "D":
            if (x, yy) in covered:
                yield from solve(idx + 1)
                return
            nw_e, ne_e, top_e = down_cell_edges(x, yy)
            nw, top = labels[nw_e], labels[top_e]
            for dnw, dne, dtop in down_list:
                if dnw == nw and dtop == top:
                    placed = set_edges([(ne_e, dne)])
                    if placed is not None:
                        yield from solve(idx + 1)
                        for d in placed:
                            del labels[d]
            if not special:
                for dnw, dne, dtop in sp_down:
                    if dnw == nw and dtop == top:
                        placed = set_edges([(ne_e, dne)])
                        if placed is not None:
                            special.append(("D", x, yy))
                            yield from solve(idx + 1)
                            special.pop()
                            for d in placed:
                                del labels[d]
            return
        a_e, b_e, h_e = up_cell_edges(x, yy)
        left = labels[a_e]
        # option 1: plain up-triangle
        for l, r, h in up_list:
            if l != left:
                continue
            placed = set_edges([(b_e, r), (h_e, h)])
            if placed is not None:
                yield from solve(idx + 1)
                for d in placed:
                    del labels[d]
        if not special:
            for l, r, h in sp_up:
                if l != left:
                    continue
                placed = set_edges([(b_e, r), (h_e, h)])
                if placed is not None:
                    special.append(("U", x, yy))
                    yield from solve(idx + 1)
                    special.pop()
                    for d in placed:
                        del labels[d]
        # option 2: top half of a vertical rhombus (needs a row below,
        # and its bottom edge must still be free)
        if yy < n - 1 and h_e not in labels:
            r = (x, yy)
            (pb1, pb2), (_, qa2) = rhombus_outer_edges(r)
            for p in rhombi_by_q.get(left, ()):
                placed = set_edges([(pb1, p), (pb2, p), (qa2, left)])
                if placed is not None:
                    rhombi.append(r)
                    covered.add((x, yy + 1))
                    yield from solve(idx + 1)
                    covered.discard((x, yy + 1))
                    rhombi.pop()
                    for d in placed:
                        del labels[d]

    yield from solve(0)


def structure_constant(u: String012, v: String012, w: String012) -> YPoly:
    """Sum of weights over the puzzles this reference lists."""
    out = YPoly.zero()
    for P in enumerate_puzzles(u, v, w):
        out = out + P.weight()
    return out


def restriction_puzzle(w: String012) -> Puzzle:
    """The unique puzzle with boundary ``(w, w, w)``: slanted edges carry
    the boundary letters straight through, with a rhombus at every
    inversion of ``w``."""
    n = len(w)
    up_by_left = tables().up_by_left
    labels: dict[Edge, int] = {}
    rhombi: set[tuple[int, int]] = set()
    for yy in range(n):
        for x in range(yy + 1):
            q = w[n - yy + x - 1]  # right projection
            p = w[x]  # left projection
            labels[("A", x, yy)] = q
            labels[("B", x, yy)] = p
            if p > q:
                rhombi.add((x, yy))
            else:
                bottom = dict(up_by_left.get(q, ())).get(p)
                if bottom is None:
                    raise InvariantViolation(f"no up-triangle with sides {(q, p)}")
                labels[("H", x, yy)] = bottom
    return _checked(Puzzle(n, labels, frozenset(rhombi)))


def bottom_rows(u: String012, v: String012) -> dict[tuple[int, ...], YPoly]:
    """The summed weight of all tilings with left and right borders
    ``u`` and ``v``, by bottom-row labels (composed labels included)."""
    n = len(u)
    moves = tables().step_moves
    states: dict[tuple, YPoly] = {(): YPoly.const(1)}
    for yy in range(n):
        frontier = {((), u[n - yy - 1], above): wt for above, wt in states.items()}
        bottom = LABELS if yy == n - 1 else None
        for x in range(yy + 1):
            border = v[yy] if x == yy else None
            i, j = rhombus_position(x, yy, n)
            rhombus_weight = y(j) - y(i)
            step: dict[tuple, YPoly] = {}
            for (done, carry, above), wt in frontier.items():
                over = above[0] if above else None
                for _, item, ne, _ in moves[carry, over, border, bottom, False]:
                    key = (done + (item,), ne, above[1:])
                    step[key] = step[key] + wt if key in step else wt
            # every rhombus placed in this step has the same weight, so
            # it multiplies each merged sum once
            for key, wt in step.items():
                if key[0][-1] >= 8:
                    step[key] = wt * rhombus_weight
            frontier = step
        states = {done: wt for (done, _, _), wt in frontier.items()}
    return states  # the last row holds no rhombus, so its items are its labels
