"""Structure constants and puzzle listings from one row-state engine.

A tiling is built top down, one step per up-cell: the step at ``x`` in
row ``y`` places ``U(x, y)`` and completes the down-cell ``D(x, y)``
after it.  The state between steps is ``(items of row y so far, carry,
unused items of row y-1)``, where the carry is ``A(x+1, y)`` and an
item is one byte: ``label``, the bottom edge of an up-cell, or
``8 + 8p + q``, the top half of a vertical rhombus whose lower half
presets ``B(x, y+1) = p`` and ``A(x+1, y+1) = q``.  Both readers of
the states take their moves from one table, ``PieceTables.step_moves``,
built once per piece-table value and shared by every call; its key
names the labels that the bottom row may hold:

- ``product_expansion(u, v)`` computes every ``C^w_{u,v}`` in three
  passes over the layered graph of states, each state packed into one
  int (a byte per item, see ``_bottom_rows``), so a move is one
  addition.  A forward pass with no weights, whose last row holds only
  simple labels (the strings ``w``), records each step's states and
  the moves' deltas; a backward pass keeps the live states, those with
  a path to a bottom row, with their live successors only; a weighted
  pass over the live states merges equal states after every step and
  sums their weights.
  This is the transfer-matrix view of puzzles (Zinn-Justin,
  "Littlewood-Richardson coefficients and integrable tilings", EJC 16,
  2009; Knutson-Zinn-Justin, "Schubert puzzles and integrability I",
  arXiv:1706.10019).
- ``enumerate_puzzles(u, v, w)`` walks the states depth first, each
  bottom-row step allowed only its label of ``w``, and
  ``enumerate_one_special`` is the same walk with one more state bit,
  "the temporary piece is used" (the one non-puzzle piece a flawed
  puzzle can hold).  They serve single triples (``structure_constant``,
  which equals the recursion-oracle value, see
  ``strings.oracle_constant``) and the mutation and aura checks.

A sweep lists each triple's neighbours too (a gash-pair flaw is a
puzzle of a neighbouring boundary, and the aura recursion reads their
constants), so ``_listing`` is an ``lru_cache`` of the 64 most recently
used listings.  It is keyed on the piece-table value, compared by
identity, so a new table value starts with no entries.  A listing is the
complete tuple of ``(puzzle, cell)`` pairs in walk order, each plain
puzzle validated: a walk that raises stores nothing, and on a miss the
walk finishes before the first puzzle is handed out.  Listed puzzles are
shared by every caller, so their labels are read-only
(``board.Puzzle``).  Weights are not memoised.

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

from functools import lru_cache
from typing import Collection, Iterator

from .algebra import YPoly
from .board import Edge, InvariantViolation, Puzzle, rhombus_weight
from .labels import SIMPLE, PieceTables, tables
from .strings import String012, content

__all__ = [
    "enumerate_puzzles",
    "enumerate_one_special",
    "structure_constant",
    "product_expansion",
]


def enumerate_puzzles(u: String012, v: String012, w: String012) -> Iterator[Puzzle]:
    """Yield all puzzles with boundary ``(u, v, w)`` in deterministic order."""
    for P, _ in _listing(tables(), u, v, w, False):
        yield P


def enumerate_one_special(
    u: String012, v: String012, w: String012
) -> Iterator[tuple[Puzzle, tuple[str, int, int]]]:
    """Yield ``(tiling, cell)`` pairs for every tiling of the boundary that
    uses the ordinary pieces everywhere except at exactly one cell, which
    holds a temporary piece: a key of ``PieceTables.temporaries`` (as
    ``(left, right, bottom)``) or of ``down_temporaries`` (as ``(nw, ne,
    top)``)."""
    yield from _listing(tables(), u, v, w, True)


@lru_cache(maxsize=64)
def _listing(t: PieceTables, u: String012, v: String012, w: String012, need: bool) -> tuple:
    """The tilings that ``_walk`` lists for ``(u, v, w, need)`` with the
    step moves of ``t``, with their cells, each plain puzzle validated."""
    out = []
    for P, cell in _walk(u, v, w, need, t.step_moves):
        if not need and (problems := P.validate()):
            raise InvariantViolation(f"built an invalid puzzle: {problems}")
        out.append((P, cell))
    return tuple(out)


def _walk(
    u: String012, v: String012, w: String012, need: bool, moves: dict[tuple, tuple]
) -> Iterator[tuple[Puzzle, tuple[str, int, int] | None]]:
    """Each tiling of ``(u, v, w)`` with no temporary piece, or with
    exactly one if ``need``, with its temporary cell, in the order of
    ``moves``, the table's ``step_moves``."""
    n = len(u)
    if not (len(v) == len(w) == n):
        raise ValueError("boundary strings must have equal length")
    if not (content(u) == content(v) == content(w)):
        return
    steps = [(x, yy) for yy in range(n) for x in range(yy + 1)]
    # per step: the label the right border gives B(x, y), the bottom-row
    # key of the moves, and the carry A(0, y+1) after the last step of a row
    border = [v[yy] if x == yy else None for x, yy in steps]
    bottom = [(w[x],) if yy == n - 1 else None for x, yy in steps]
    carry_next = [u[n - yy - 2] if yy < n - 1 else None for _, yy in steps]
    last = len(steps)
    path: list[tuple] = [()] * last
    frames: list[tuple] = []  # (state, moves not yet tried)
    state = (0, (), u[-1] if n else None, (), False)
    while True:
        k, done, carry, above, used = state
        if k == last:
            if used == need:
                yield _build(u, zip(steps, path))
        else:
            over = above[0] if above else None
            key = (carry, over, border[k], bottom[k], need and not used)
            frames.append((state, iter(moves[key])))
        # back up to the innermost state with a move left
        while frames and (move := next(frames[-1][1], None)) is None:
            frames.pop()
        if not frames:
            return
        k, done, carry, above, used = frames[-1][0]
        path[k] = move
        _, item, ne, sp = move
        used = used or sp is not None
        if border[k] is None:
            state = (k + 1, done + (item,), ne, above[1:], used)
        else:
            state = (k + 1, (), carry_next[k], done + (item,), used)


def _build(u, path) -> tuple[Puzzle, tuple[str, int, int] | None]:
    """The tiling given by the ``(step, move)`` pairs of ``path``, and its
    temporary cell.  The moves set every label but the left border's."""
    n = len(u)
    labels: dict[Edge, int] = {("A", 0, n - 1 - i): u[i] for i in range(n)}
    rhombi, cell = [], None
    for (x, yy), (right, item, ne, sp) in path:
        labels[("B", x, yy)] = right
        if item < 8:
            labels[("H", x, yy)] = item
        else:
            labels[("B", x, yy + 1)] = right
            labels[("A", x + 1, yy + 1)] = item & 7
            rhombi.append((x, yy))
        if ne is not None:
            labels[("A", x + 1, yy)] = ne
        if sp is not None:
            cell = (sp, x, yy)
    return Puzzle(n, labels, frozenset(rhombi)), cell


def structure_constant(u: String012, v: String012, w: String012) -> YPoly:
    """Sum of weights over all puzzles with boundary ``(u, v, w)``."""
    out = YPoly.zero()
    for P in enumerate_puzzles(u, v, w):
        out = out + P.weight()
    return out


def product_expansion(u: String012, v: String012) -> dict[String012, YPoly]:
    """All nonzero structure constants ``w -> C^w_{u,v}`` for fixed u, v,
    in ``all_strings`` order, from one row transfer over the live states."""
    if len(v) != len(u):
        raise ValueError("boundary strings must have equal length")
    if content(u) != content(v):
        return {}
    bottom = _bottom_rows(u, v)
    return {w: bottom[w] for w in sorted(bottom) if bottom[w]}


def _bottom_rows(u: String012, v: String012) -> dict[tuple[int, ...], YPoly]:
    """The summed weight of all tilings with left and right borders
    ``u`` and ``v`` and a bottom row of simple labels, by bottom row.

    A state is one int: byte 0 is the carry, byte ``k+1`` the item in
    slot ``k``, which holds row ``y`` left of the step and row ``y-1``
    from it on.  The step at ``x`` replaces slot ``x``, so a move adds a
    delta that depends only on the carry and the item over ``D(x, y)``,
    the bytes that ``mask`` keeps."""
    n = len(u)
    moves = tables().step_moves
    # 1. forward, no weights: per step, its states and, per (carry,
    # item over) key, the deltas of its moves in move order.  The step
    # that ends row y fills slot y and sets the carry A(0, y+1); the
    # last row holds simple labels only.
    start = u[-1] if n else 0
    graph: list[tuple] = []  # per step: (states, shift, mask, deltas, cell)
    frontier = {start}
    for yy in range(n):
        bottom = SIMPLE if yy == n - 1 else None
        carry_next = u[n - yy - 2] if bottom is None else 0
        for x in range(yy + 1):
            border = v[yy] if x == yy else None
            shift = 8 * (x + 1)
            mask = 0xFF | 0xFF << shift
            deltas: dict[int, tuple[int, ...]] = {}
            nxt: set[int] = set()
            for state in frontier:
                key = state & mask
                ds = deltas.get(key)
                if ds is None:
                    carry, over = key & 0xFF, key >> shift
                    if border is None:
                        ds = tuple(
                            ((item - over) << shift) + ne - carry
                            for _, item, ne, _ in moves[carry, over, None, bottom, False]
                        )
                    else:
                        ds = tuple(
                            (item << shift) + carry_next - carry
                            for _, item, _, _ in moves[carry, None, border, bottom, False]
                        )
                    deltas[key] = ds
                nxt.update(state + d for d in ds)
            graph.append((frontier, shift, mask, deltas, (x, yy)))
            frontier = nxt
    # 2. backward: a state is live if it has a path to a bottom row
    # (content is conserved, so these are the strings of content(u));
    # per step, the live states and their live successors
    live: Collection[int] = frontier
    passes = []
    while graph:
        states, shift, mask, deltas, cell = graph.pop()
        succ: dict[int, list[int]] = {}
        for state in states:
            keys = [key for d in deltas[state & mask] if (key := state + d) in live]
            if keys:
                succ[state] = keys
        passes.append((succ, shift, cell))
        live = succ
    # 3. weights, on live states only: merge equal states after every
    # step; a state holds a rhombus in the slot just filled exactly when
    # that byte is 8 or more, and every rhombus placed in a step has the
    # same weight, so it multiplies each merged sum once
    weights = {start: YPoly.const(1)} if start in live else {}
    for succ, shift, (x, yy) in reversed(passes):
        step: dict[int, YPoly] = {}
        for state, wt in weights.items():
            for key in succ[state]:
                step[key] = step[key] + wt if key in step else wt
        factor = None
        for key, wt in step.items():
            if key >> shift & 0xFF >= 8:
                if factor is None:
                    factor = rhombus_weight(x, yy, n)
                step[key] = wt * factor
        weights = step
    return {tuple(state.to_bytes(n + 1, "little")[1:]): wt for state, wt in weights.items()}


if __name__ == "__main__":
    import doctest

    doctest.testmod()
