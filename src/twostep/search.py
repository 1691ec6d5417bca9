"""Structure constants by row transfer, and enumeration of puzzles.

``product_expansion(u, v)`` computes every constant ``C^w_{u,v}`` in one
top-down pass over the rows: the transfer-matrix view of puzzles
(Zinn-Justin, "Littlewood-Richardson coefficients and integrable
tilings", EJC 16, 2009; Knutson-Zinn-Justin, "Schubert puzzles and
integrability I", arXiv:1706.10019).  The state between rows ``y`` and
``y+1`` has one item per up-cell of row ``y``: ``("H", label)``, the
cell's bottom edge, or ``("R", p, q)``, the top half of a vertical
rhombus whose lower half presets ``B(x, y+1) = p`` and
``A(x+1, y+1) = q``.  Each state carries the summed weight of the
partial puzzles above it, and the bottom states are the strings ``w``.

``enumerate_puzzles(u, v, w)`` lists every puzzle with boundary
``(u, v, w)`` by a deterministic row-by-row backtracking sweep: within
row ``y`` it decides ``U(0,y), D(0,y), U(1,y), ..., U(y,y)`` in order.
At an up-cell the branch is either a valid up-triangle compatible with
the already-placed edges, or a vertical rhombus (whose lower half
presets the two slanted edges of the down-cell underneath).  Down-cells
are forced by two-side completion.  It serves single triples
(``structure_constant``, which equals the recursion-oracle value, see
``strings.oracle_constant``) and the listing of puzzles and of tilings
with one special piece.

>>> from .strings import parse, fmt, extreme_constant
>>> w = parse("120")
>>> [P] = enumerate_puzzles(w, w, w)
>>> P.weight() == extreme_constant(w)
True
>>> exp = product_expansion(parse("01201"), parse("10102"))
>>> sorted(fmt(w) for w in exp)
['10201', '10210', '11200', '12001', '12010']
"""

from __future__ import annotations

from typing import Iterator

from .algebra import YPoly, y
from .board import (
    Edge,
    InvariantViolation,
    Puzzle,
    down_cell_edges,
    rhombus_outer_edges,
    rhombus_position,
    up_cell_edges,
)
from .labels import complete_triangle, tables
from .strings import String012, all_strings, content

__all__ = [
    "enumerate_puzzles",
    "enumerate_one_special",
    "count_puzzles",
    "structure_constant",
    "product_expansion",
    "restriction_puzzle",
]


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
    rhombi: list[tuple[int, int, int]] = []
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
            r = (x, yy, 0)
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


def count_puzzles(u: String012, v: String012, w: String012) -> int:
    return sum(1 for _ in enumerate_puzzles(u, v, w))


def structure_constant(u: String012, v: String012, w: String012) -> YPoly:
    """Sum of weights over all puzzles with boundary ``(u, v, w)``."""
    out = YPoly()
    for P in enumerate_puzzles(u, v, w):
        out = out + P.weight()
    return out


def product_expansion(u: String012, v: String012) -> dict[String012, YPoly]:
    """All nonzero structure constants ``w -> C^w_{u,v}`` for fixed u, v,
    in ``all_strings`` order, from one row-transfer pass."""
    if len(v) != len(u):
        raise ValueError("boundary strings must have equal length")
    if content(u) != content(v):
        return {}
    bottom = _bottom_rows(u, v)
    out: dict[String012, YPoly] = {}
    for w in all_strings(*content(u)):
        c = bottom.get(w)
        if c:
            out[w] = c
    return out


def _bottom_rows(u: String012, v: String012) -> dict[tuple[int, ...], YPoly]:
    """The summed weight of all tilings with left and right borders
    ``u`` and ``v``, by bottom-row labels (composed labels included).

    Row ``y`` is scanned left to right, one up-cell ``U(x, y)`` and the
    down-cell ``D(x, y)`` after it per step.  A partial state is
    ``(items of row y so far, carry, unused items of row y-1)``, where
    the carry is ``A(x+1, y)``, the left side of the next up-cell.
    """
    n = len(u)
    t = tables()
    up_by_left, down_by_nw_top, rhombi_by_q = t.up_by_left, t.down_by_nw_top, t.rhombi_by_q
    states: dict[tuple, YPoly] = {(): YPoly.const(1)}
    for yy in range(n):
        frontier = {((), u[n - yy - 1], above): wt for above, wt in states.items()}
        for x in range(yy + 1):
            i, j = rhombus_position(x, yy, n)
            rhombus_weight = y(j) - y(i)
            step: dict[tuple, YPoly] = {}
            for (done, carry, above), wt in frontier.items():
                # B(x, y) is fixed by v on the right border, or by the
                # lower half of a rhombus from the row above
                if x == yy:
                    over, preset = None, v[yy]
                else:
                    over = above[0]
                    preset = over[1] if over[0] == "R" else None
                options = [
                    (r, ("H", h)) for r, h in up_by_left.get(carry, ()) if preset in (None, r)
                ]
                if yy < n - 1:
                    options += [
                        (p, ("R", p, carry))
                        for p in rhombi_by_q.get(carry, ())
                        if preset in (None, p)
                    ]
                for right, item in options:
                    if over is None:
                        nxt = None
                    elif over[0] == "R":
                        nxt = over[2]  # D(x, y) is the rhombus's lower half
                    else:
                        nxt = down_by_nw_top.get((right, over[1]))
                        if nxt is None:
                            continue
                    key = (done + (item,), nxt, above[1:])
                    step[key] = step[key] + wt if key in step else wt
            # every rhombus placed in this step has the same weight, so
            # it multiplies each merged sum once
            for key, wt in step.items():
                if key[0][-1][0] == "R":
                    step[key] = wt * rhombus_weight
            frontier = step
        states = {done: wt for (done, _, _), wt in frontier.items()}
    return {tuple(label for _, label in row): wt for row, wt in states.items()}


def restriction_puzzle(w: String012) -> Puzzle:
    """The unique puzzle with boundary ``(w, w, w)``: slanted edges carry
    the boundary letters straight through, with a rhombus at every
    inversion of ``w``.

    >>> from .strings import parse, extreme_constant
    >>> P = restriction_puzzle(parse("2010"))
    >>> P.boundary() == (parse("2010"),) * 3
    True
    >>> P.weight() == extreme_constant(parse("2010"))
    True
    """
    n = len(w)
    t = tables()
    labels: dict[Edge, int] = {}
    rhombi: set[tuple[int, int, int]] = set()
    for yy in range(n):
        for x in range(yy + 1):
            q = w[n - yy + x - 1]  # right projection
            p = w[x]  # left projection
            labels[("A", x, yy)] = q
            labels[("B", x, yy)] = p
            if p > q:
                rhombi.add((x, yy, 0))
            else:
                done = complete_triangle("up", left=q, right=p)
                if done is None:
                    raise InvariantViolation(f"no up-triangle with sides {(q, p)}")
                labels[("H", x, yy)] = done[2]
    return _checked(Puzzle(n, labels, frozenset(rhombi)))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
