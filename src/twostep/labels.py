"""Edge labels and the canonical puzzle-piece tables.

Labels are the integers 0..7.  The simple labels 0, 1, 2 are single
letters; the composed labels expand to strings over {0,1,2}:
``3 = 10``, ``4 = 21``, ``5 = 20``, ``6 = 2(10)``, ``7 = (21)0``.

A triangular piece is stored in its right-side-up frame as a label triple
``(left, right, horizontal)``.  The eight canonical triangles are::

    (0,0,0)  (1,1,1)  (2,2,2)  (1,0,3)  (2,1,4)  (2,0,5)  (2,3,6)  (4,0,7)

and rotating a piece by 120 degrees maps ``(l, r, h)`` to ``(h, l, r)``.
A rhombus (equivariant) piece is stored in its vertical frame as a pair
``(p, q)`` where ``p`` labels the two NW-SE sides and ``q`` the two SW-NE
sides; opposite sides always agree.  The eight canonical rhombi are::

    (1,0)  (2,1)  (2,0)  (2,3)  (4,0)  (4,3)  (6,0)  (2,7)

Pieces may be rotated but never reflected.  :class:`PieceTables` owns
the two tables and every table derived from them (lookup indices, the
step moves of the row-state engine, whose only special pieces are the
temporary pieces, the ``replacements`` that move a gash across a
triangle, gash classes, temporary-piece and scab tables, sliding gash
sets, auras), each computed once per table value on first use.
:func:`validate_tables` gates everything downstream: it re-checks the
counts, the one-replacement lemma behind gash propagation, label
coverage, uniqueness of completion from two known sides, and the
derived tables.

>>> dual_label(3)
4
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from itertools import product
from typing import Optional

from .algebra import Tower

__all__ = [
    "LABELS",
    "SIMPLE",
    "COMPOSED",
    "dual_label",
    "IN_UP",
    "OUT_UP",
    "IN_DOWN",
    "OUT_DOWN",
    "IN",
    "OUT",
    "PieceTables",
    "tables",
    "load_tables",
    "validate_tables",
]

LABELS = tuple(range(8))
SIMPLE = (0, 1, 2)
COMPOSED = (3, 4, 5, 6, 7)

_DUAL = {0: 2, 1: 1, 2: 0, 3: 4, 4: 3, 5: 5, 6: 7, 7: 6}

# direction of a gash pointing into (IN) or out of (OUT) a cell through
# side i; up cells list sides as (left, right, bottom), down cells as
# (nw, ne, top).  Direction d makes the angle (2d + 1) * 30 degrees.
IN_UP = (5, 3, 1)
OUT_UP = (2, 0, 4)
IN_DOWN = (0, 2, 4)
OUT_DOWN = (3, 5, 1)
# the same, by cell kind
IN = {"U": IN_UP, "D": IN_DOWN}
OUT = {"U": OUT_UP, "D": OUT_DOWN}


def dual_label(l: int) -> int:
    """The dual-label substitution 0<->2, 1->1, 3<->4, 5->5, 6<->7.

    >>> dual_label(dual_label(6))
    6
    """
    return _DUAL[l]


def _rot(t: tuple[int, int, int]) -> tuple[int, int, int]:
    l, r, h = t
    return (h, l, r)


Triple = tuple[int, int, int]
AbstractGash = tuple[int, int, int]  # (direction d, original label, new label)


@dataclass(frozen=True, eq=False)
class PieceTables:
    """The canonical triangle and rhombus tables and every table derived
    from them.

    ``triangles`` holds the canonical (rotation-orbit representative)
    triples; ``up_triangles`` is the rotation closure, i.e. all valid
    ``(left, right, horizontal)`` triples for a right-side-up cell.  The
    other derived tables are computed on first use and kept on the value.
    A value equals only itself, so a memo keyed on it (``search``'s
    listings) shares nothing with another value, even an identical one.
    """

    triangles: tuple[Triple, ...]
    rhombi: tuple[tuple[int, int], ...]

    def __post_init__(self):
        closure = set()
        for t in self.triangles:
            closure.update((t, _rot(t), _rot(_rot(t))))
        object.__setattr__(self, "_up", frozenset(closure))

    @property
    def up_triangles(self) -> frozenset[Triple]:
        return self._up

    def valid_up(self, left: int, right: int, horizontal: int) -> bool:
        return (left, right, horizontal) in self._up

    def valid_down(self, nw: int, ne: int, top: int) -> bool:
        # a 180-degree rotation of an upside-down cell: its NE side lands
        # where an up cell's left side is, its NW side on the right side
        return (ne, nw, top) in self._up

    def valid(self, kind: str, piece: Triple) -> bool:
        """Whether ``piece``, the sides of a ``"U"`` or ``"D"`` cell in
        ``board.cell_sides`` order, is a valid triangle."""
        return (self.valid_up if kind == "U" else self.valid_down)(*piece)

    def dual(self) -> "PieceTables":
        tris = tuple(
            (dual_label(r), dual_label(l), dual_label(h)) for (l, r, h) in self.triangles
        )
        rhos = tuple((dual_label(q), dual_label(p)) for (p, q) in self.rhombi)
        return PieceTables(tris, rhos)

    # -- lookup indices ------------------------------------------------------

    @cached_property
    def up_list(self) -> tuple[Triple, ...]:
        """Valid up-cell triples ``(left, right, bottom)``, sorted."""
        return tuple(sorted(self._up))

    @cached_property
    def down_list(self) -> tuple[Triple, ...]:
        """Valid down-cell triples ``(nw, ne, top)``, sorted."""
        return tuple(sorted((r, l, h) for (l, r, h) in self._up))

    @cached_property
    def up_by_left(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """The ``(right, bottom)`` sides of the valid up-cell triples, by
        left label, sorted."""
        out: dict[int, tuple[tuple[int, int], ...]] = {}
        for l, r, h in self.up_list:
            out[l] = out.get(l, ()) + ((r, h),)
        return out

    @cached_property
    def down_by_nw_top(self) -> dict[tuple[int, int], int]:
        """The NE label of the valid down-cell triple with the given
        ``(nw, top)``, which is unique by two-side completion."""
        return {(nw, top): ne for nw, ne, top in self.down_list}

    @cached_property
    def rhombi_by_q(self) -> dict[int, tuple[int, ...]]:
        """The NW-SE labels ``p`` of the rhombi ``(p, q)``, by ``q``."""
        out: dict[int, tuple[int, ...]] = {}
        for p, q in sorted(self.rhombi):
            out[q] = out.get(q, ()) + (p,)
        return out

    @cached_property
    def step_moves(self) -> "_StepMoves":
        """The step moves of the row-state engine (``search``), whose
        special pieces are the temporary pieces: one table, kept on this
        value and shared by every pass that reads it."""
        return _StepMoves(self)

    # -- gash propagation ----------------------------------------------------

    @cached_property
    def replacements(self) -> dict[tuple[str, Triple, int, int], tuple[int, int]]:
        """``replacements[kind, piece, s, new]``: the exit side and its new
        label when a gash enters the valid triangle ``piece`` of a ``"U"``
        or ``"D"`` cell through side ``s`` and gives that side the label
        ``new``.  The replacement piece keeps exactly one other side, and
        the gash leaves through the third.  Raises ValueError when a gash
        has two replacement pieces."""
        out: dict[tuple[str, Triple, int, int], tuple[int, int]] = {}
        for kind, triples in (("U", self.up_list), ("D", self.down_list)):
            for q in triples:
                for q2 in triples:
                    for s in range(3):
                        agree = [i for i in range(3) if i != s and q[i] == q2[i]]
                        if q2[s] == q[s] or len(agree) != 1:
                            continue
                        key = (kind, q, s, q2[s])
                        if key in out:
                            raise ValueError(f"gash {key} has two replacement pieces")
                        s2 = 3 - s - agree[0]
                        out[key] = (s2, q2[s2])
        return out

    @cached_property
    def moves(self) -> frozenset[tuple[AbstractGash, AbstractGash]]:
        """The symmetric "immediately reachable" relation on directed
        gashes: each replacement joins the entering and leaving gash."""
        rel: set[tuple[AbstractGash, AbstractGash]] = set()
        for (kind, q, s, new), (s2, new2) in self.replacements.items():
            g, h = (IN[kind][s], q[s], new), (OUT[kind][s2], q[s2], new2)
            rel.update(((g, h), (h, g)))
        return frozenset(rel)

    @cached_property
    def gash_classes(self) -> dict[AbstractGash, frozenset[AbstractGash]]:
        """Each directed gash mapped to its class: all gashes reachable
        from it by propagations (one search per class)."""
        adj: dict[AbstractGash, set[AbstractGash]] = {}
        for a, b in self.moves:
            adj.setdefault(a, set()).add(b)
        out: dict[AbstractGash, frozenset[AbstractGash]] = {}
        for g in product(range(6), LABELS, LABELS):
            if g[1] == g[2] or g in out:
                continue
            seen = {g}
            stack = [g]
            while stack:
                for h in adj.get(stack.pop(), ()):
                    if h not in seen:
                        seen.add(h)
                        stack.append(h)
            cls = frozenset(seen)
            out.update(dict.fromkeys(cls, cls))
        return out

    @cached_property
    def forward_gashes(self) -> frozenset[AbstractGash]:
        """The union of the six gash classes whose members' resolutions
        slide labels to the right: original label 1, 2, or 4 changing to
        0, pointing north or northwest."""
        return frozenset().union(
            *(self.gash_classes[(d, orig, 0)] for d in (1, 2) for orig in (1, 2, 4))
        )

    @cached_property
    def backward_gashes(self) -> frozenset[AbstractGash]:
        """The forward gashes turned by 180 degrees."""
        return frozenset(((d + 3) % 6, a, b) for d, a, b in self.forward_gashes)

    # -- flaws -----------------------------------------------------------------

    @cached_property
    def temporaries(self) -> dict[Triple, tuple[Triple, Triple, Triple]]:
        """Map each temporary up-triangle ``(left, right, bottom)`` to its
        three resolution pieces, indexed by the preserved side.  Raises
        ValueError when a temporary piece has two sets of resolutions."""
        valid, ups = self._up, self.up_list
        out = {}
        for t in product(LABELS, repeat=3):
            if t in valid:
                continue
            found = [
                (rA, rB, rC)
                for rA in ups  # preserves side 0
                if rA[0] == t[0]
                for rB in ups  # preserves side 1
                if rB[1] == t[1]
                for rC in ups  # preserves side 2
                if rC[2] == t[2]
                and (rC[0], rA[1], rB[2]) in valid
                and (rB[0], rC[1], rA[2]) in valid
            ]
            if len(found) > 1:
                raise ValueError(f"temporary piece {t} has {len(found)} resolutions")
            if found:
                out[t] = found[0]
        return out

    @cached_property
    def down_temporaries(self) -> dict[Triple, tuple[Triple, Triple, Triple]]:
        """Temporary down-triangles ``(nw, ne, top)`` with resolutions, by
        180-degree rotation of the up table."""

        def flip(t):
            return (t[1], t[0], t[2])

        return {
            flip(t): (flip(rB), flip(rA), flip(rC))
            for t, (rA, rB, rC) in self.temporaries.items()
        }

    @cached_property
    def scabs(self) -> dict[tuple[int, int, int, int], tuple[str, tuple[int, int]]]:
        """Map each scab ``(NW, NE, SE, SW)`` -- a vertical two-triangle
        rhombus that is not 180-degree symmetric -- to its unique
        resolution: ``("L", (p, q))`` when the equivariant piece agrees
        on the NW/SW sides (gashes on NE and SE), ``("R", (p, q))`` when
        it agrees on NE/SE (gashes on NW and SW).  Raises ValueError when
        a scab has no resolution or two."""
        ups = self.up_list
        out = {}
        for a, b, z in ups:  # up triangle: left a, right b, bottom z
            for c, d in ((q3[1], q3[0]) for q3 in ups if q3[2] == z):
                # down triangle below: nw c, ne d, top z
                if (c, d) == (b, a):
                    continue  # 180-degree symmetric: not a scab
                s = (a, b, d, c)  # (NW, NE, SE, SW)
                res = []
                if (c, a) in self.rhombi:
                    res.append(("L", (c, a)))
                if (b, d) in self.rhombi:
                    res.append(("R", (b, d)))
                if len(res) != 1:
                    raise ValueError(f"scab {s} has {len(res)} resolutions")
                out[s] = res[0]
        return out

    # -- auras -----------------------------------------------------------------

    @cached_property
    def aura(self) -> dict[tuple[int, int], Tower]:
        """Aura of every semi-labeled edge ``(direction d, label)``.

        Simple labels are seeded directly; composed labels are solved
        from pieces with a single unknown side until the table is
        complete.  Raises ValueError unless the table is complete, every
        piece's side auras sum to zero (so two pieces can never derive
        different values), and the table is rotation-equivariant.
        """
        table = {
            (d, a): Tower.delta(a) * Tower.zeta(2 * d + 1) for d in range(6) for a in SIMPLE
        }
        pieces = [(IN_UP, t) for t in self.up_list] + [(IN_DOWN, t) for t in self.down_list]
        changed = True
        while changed:
            changed = False
            for ins, t in pieces:
                unknown = [i for i in range(3) if (ins[i], t[i]) not in table]
                if len(unknown) == 1:
                    i = unknown[0]
                    total = Tower.zero()
                    for k in range(3):
                        if k != i:
                            total = total + table[(ins[k], t[k])]
                    table[(ins[i], t[i])] = -total
                    changed = True
        if set(table) != set(product(range(6), LABELS)):
            raise ValueError(f"aura table is not complete: {len(table)} of 48 entries")
        for ins, t in pieces:
            if table[(ins[0], t[0])] + table[(ins[1], t[1])] + table[(ins[2], t[2])]:
                raise ValueError(f"aura table is inconsistent at piece {t}")
        for (d, a), v in table.items():
            if table[((d + 1) % 6, a)] != v * Tower.zeta(2):
                raise ValueError(f"aura table is not rotation-equivariant at {(d, a)}")
        return table


class _StepMoves(dict):
    """``moves[carry, over, preset, bottom, special]``: the moves
    ``(B(x, y), item of U(x, y), A(x+1, y), "U"|"D"|None)`` of a step of
    the row-state engine, the last naming the cell of a temporary piece.
    An item is one byte: an up-triangle's bottom label, or ``8 + 8p + q``
    for the top half of a rhombus ``(p, q)``.  ``over`` is the item above
    ``D(x, y)``, or None; ``preset`` is the label the right border gives
    ``B(x, y)``, or None, and a rhombus ``over`` presets it too.
    ``bottom`` is None above the last row, and in it the labels the step
    may place; ``special`` allows temporary pieces.  Order: ordinary
    up-triangles, temporary ones sorted, rhombi; under each, the ordinary
    down-triangle, then temporary ones sorted.  An entry is built on its
    first lookup and kept."""

    def __init__(self, t: PieceTables):
        super().__init__()
        self._t = t

    def __missing__(self, key: tuple) -> tuple:
        carry, over, preset, bottom, special = key
        t = self._t
        ups = [(r, h, None) for r, h in t.up_by_left.get(carry, ())]
        if special:
            sp_up, sp_down = sorted(t.temporaries), sorted(t.down_temporaries)
            ups += [(r, h, "U") for l, r, h in sp_up if l == carry]
        if bottom is None:
            ups += [(p, 8 + 8 * p + carry, None) for p in t.rhombi_by_q.get(carry, ())]
        else:
            ups = [m for m in ups if m[1] in bottom]
        if over is not None and over >= 8:
            preset = (over - 8) >> 3
        out = []
        for right, item, sp in ups:
            if preset not in (None, right):
                continue
            if over is None or over >= 8:
                # no D(x, y), or the lower half of the rhombus above
                out.append((right, item, None if over is None else over & 7, sp))
                continue
            downs = [(t.down_by_nw_top.get((right, over)), sp)]
            if special and sp is None:
                downs += [(ne, "D") for nw, ne, top in sp_down if (nw, top) == (right, over)]
            out += [(right, item, ne, s) for ne, s in downs if ne is not None]
        self[key] = moves = tuple(out)
        return moves


# ---------------------------------------------------------------------------
# Fixture loading


def _parse_tables(text: str) -> PieceTables:
    tris: list[tuple[int, int, int]] = []
    rhos: list[tuple[int, int]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, *sides = line.split()
        if (kind, len(sides)) not in (("triangle", 3), ("rhombus", 2)):
            raise ValueError(f"bad piece-table line: {line!r}")
        labels = tuple(int(x) for x in sides)
        # the row-state engine packs an item into one byte (_StepMoves)
        if not set(labels) <= set(LABELS):
            raise ValueError(f"piece-table label outside 0..7: {line!r}")
        (tris if kind == "triangle" else rhos).append(labels)  # type: ignore[arg-type]
    return PieceTables(tuple(tris), tuple(rhos))


def load_tables(path: Optional[str] = None) -> PieceTables:
    """Load piece tables from ``path``, ``$PUZZLE_TABLE_PATH``, or the
    packaged fixture."""
    path = path or os.environ.get("PUZZLE_TABLE_PATH")
    if path:
        with open(path, encoding="utf-8") as f:
            return _parse_tables(f.read())
    text = resources.files("twostep").joinpath("data/piece_tables.txt").read_text("utf-8")
    return _parse_tables(text)


@lru_cache(maxsize=4)
def _tables_cached(path: Optional[str]) -> PieceTables:
    t = load_tables(path)
    violations = validate_tables(t)
    if violations:
        raise ValueError("invalid piece tables: " + "; ".join(violations))
    return t


def tables() -> PieceTables:
    """The validated piece tables (respects ``$PUZZLE_TABLE_PATH``)."""
    return _tables_cached(os.environ.get("PUZZLE_TABLE_PATH"))


# ---------------------------------------------------------------------------
# Validation


def validate_tables(t: Optional[PieceTables] = None) -> list[str]:
    """Check the transcribed tables; returns a list of violations.

    Checks: (i) exactly 8 triangles and 8 rhombi up to rotation;
    (ii) the one-replacement lemma -- for labels with a != x, b != y,
    c != z, the triangles (x,b,c), (a,y,c), (a,b,z) are never all valid;
    (iii) every composed label appears on some triangle; (iv) completion
    from two known sides never has two solutions; (v) both tables are
    closed under dualization.  Tables passing these must also derive
    (vi) at most one replacement piece for every gash entering a
    triangle, a unique resolution for every temporary piece and every
    scab, and a complete, consistent, rotation-equivariant aura table.

    >>> validate_tables()
    []
    >>> t = load_tables()
    >>> validate_tables(PieceTables(t.triangles[1:], t.rhombi)) != []
    True
    """
    if t is None:
        t = load_tables()
    out: list[str] = []
    up = t.up_triangles

    # (i) counts up to rotation
    orbits = set()
    for tri in up:
        orbits.add(min(tri, _rot(tri), _rot(_rot(tri))))
    if len(orbits) != 8:
        out.append(f"expected 8 triangle rotation-orbits, got {len(orbits)}")
    if len(up) != 18:
        out.append(f"expected 18 oriented up-triangles, got {len(up)}")
    if len(set(t.rhombi)) != 8:
        out.append(f"expected 8 distinct rhombi, got {len(set(t.rhombi))}")

    # (ii) one-replacement lemma over all label assignments
    for a, b, c in product(LABELS, repeat=3):
        for x in LABELS:
            if x == a:
                continue
            if (x, b, c) not in up:
                continue
            for yy in LABELS:
                if yy == b or (a, yy, c) not in up:
                    continue
                for z in LABELS:
                    if z != c and (a, b, z) in up:
                        out.append(
                            f"one-replacement lemma fails at {(a, b, c)} vs {(x, yy, z)}"
                        )

    # (iii) composed-label coverage
    seen = {l for tri in up for l in tri}
    for l in COMPOSED:
        if l not in seen:
            out.append(f"composed label {l} appears on no triangle")

    # (iv) two-side completion uniqueness
    for i, j in ((0, 1), (0, 2), (1, 2)):
        pairs: dict[tuple[int, int], int] = {}
        for tri in up:
            key = (tri[i], tri[j])
            pairs[key] = pairs.get(key, 0) + 1
        for key, cnt in pairs.items():
            if cnt > 1:
                out.append(f"two-side completion ambiguous on sides {(i, j)} = {key}")

    # (v) closure sanity: duals of valid pieces are valid
    if t.dual().up_triangles != up:
        out.append("triangle table not closed under dualization")
    if set(t.dual().rhombi) != set(t.rhombi):
        out.append("rhombus table not closed under dualization")

    # (vi) the derived tables, which presuppose (i)-(v); building one
    # raises ValueError on a violation
    if not out:
        try:
            t.replacements, t.temporaries, t.scabs, t.aura
        except ValueError as e:
            out.append(str(e))
    return out


if __name__ == "__main__":
    import doctest

    doctest.testmod()
