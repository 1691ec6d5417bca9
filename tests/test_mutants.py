"""Every check must catch a bug: small named faults, each applied with
``monkeypatch``, and the verification that must fail on it.

Each fault runs at the smallest size that catches it.  A suite that
still exits 0 with one of these faults in place checks nothing of
what the fault breaks.
"""

import inspect
import json
import textwrap

import pytest

from twostep import algebra, aura, board, cli, mutation, search, strings
from twostep.algebra import Tower
from twostep.board import border_edge, rhombus_position
from twostep.strings import cocovers, covers, neighbours


def source_mutant(func, old, new):
    """``func`` recompiled from its source with the one occurrence of
    ``old`` replaced by ``new``, in its own module's namespace."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, old
    scope = {}
    exec(source.replace(old, new), func.__globals__, scope)
    return scope[func.__name__]


AURA = ["verify", "--suite", "aura", "--max-n", "3"]
MUTATION = ["verify", "--suite", "mutation", "--max-n", "3"]
ORACLE = ["verify", "--suite", "oracle", "--max-n", "3"]
PIECES = ["verify", "--suite", "pieces"]
GASHES = ["verify", "--suite", "gashes"]
ZETA_SIX_IS_ONE = algebra._ZETA_REDUCE[:6] + (((0, 1),),)  # the reduction table for zeta^6 = +1
OUT_UP = mutation.OUT["U"]
OUT_UP_SWAPPED = {**mutation.OUT, "U": (OUT_UP[1], OUT_UP[0], *OUT_UP[2:])}
WALK = search._walk
# the identity key with the labels in insertion order, not sorted
KEY_UNSORTED = property(lambda P: (P.n, tuple(P.labels.items()), tuple(sorted(P.rhombi))))
# the quotient monomial lowered in the field below the pivot's
DIVIDE_LOWERS_WRONG_FIELD = source_mutant(
    algebra.exact_divide, "qm = m - pivot", "qm = m - (pivot >> 8)"
)
# each bottom-row step allowed every simple label, not its label of w
WALK_IGNORES_BOTTOM_ROW = source_mutant(search._walk, "(w[x],)", "SIMPLE")
# the board table with the side a gash enters a down-cell by one too high
# (its own cache: the faulty tables never reach ``board.board_table``'s)
DOWN_SIDE_OFF_BY_ONE = source_mutant(
    board.board_table.__wrapped__,
    "(c, c.sides.index(e))",
    '(c, (c.sides.index(e) + (c.kind == "D")) % 3)',
)


def v_points_out(border, i, n):
    """``border_edge`` with the gash on border ``v`` pointing off the board."""
    edge, d = border_edge(border, i, n)
    return (edge, 0 if border == "v" else d)


# (name, object, attribute, faulty replacement, argv of the check that must exit 1)
MUTANTS = [
    ("tower-sub-adds", Tower, "__sub__", lambda a, b: a + b, AURA),
    ("tower-neg-is-identity", Tower, "__neg__", lambda a: a, AURA),
    ("rhombus-position-swapped", board, "rhombus_position",
     lambda x, yy, n: rhombus_position(x, yy, n)[::-1], ORACLE),
    ("zeta-six-is-one", algebra, "_ZETA_REDUCE", ZETA_SIX_IS_ONE, PIECES),
    ("covers-drops-first", strings, "covers", lambda u: covers(u)[1:], ORACLE),
    ("cocovers-drops-last", strings, "cocovers", lambda w: cocovers(w)[:-1], ORACLE),
    ("gash-class-is-singleton", mutation, "gash_class", lambda g: frozenset({g}), GASHES),
    ("out-up-swapped", mutation, "OUT", OUT_UP_SWAPPED, MUTATION),
    ("puzzle-key-keeps-insertion-order", board.Puzzle, "key", KEY_UNSORTED, MUTATION),
    ("border-edge-v-points-out", mutation, "border_edge", v_points_out, MUTATION),
    ("walk-drops-last", search, "_walk", lambda *key: iter(list(WALK(*key))[:-1]), ORACLE),
    ("walk-ignores-bottom-row", search, "_walk", WALK_IGNORES_BOTTOM_ROW, ORACLE),
    ("exact-divide-lowers-wrong-field", strings, "exact_divide", DIVIDE_LOWERS_WRONG_FIELD, ORACLE),
    ("one-special-lists-nothing", mutation, "enumerate_one_special", lambda *key: iter(()),
     MUTATION),
    ("neighbours-drops-last", aura, "neighbours", lambda *key: neighbours(*key)[:-1], AURA),
    ("board-table-down-side-off-by-one", mutation, "board_table", DOWN_SIDE_OFF_BY_ONE, MUTATION),
]


@pytest.mark.parametrize(
    "target, attr, fault, argv", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS]
)
def test_mutant_is_caught(monkeypatch, capsys, target, attr, fault, argv):
    # neither the oracle cache, the listing memo nor the board tables may
    # hold an entry computed with a fault in place, or one that would
    # hide the fault
    caches = (strings.oracle_constant, search._listing, board.board_table)
    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(target, attr, fault)
    try:
        assert cli.main(argv) == 1
    finally:
        for cache in caches:
            cache.cache_clear()
    out, err = capsys.readouterr()
    assert json.loads(out)["pass"] is False
    assert err == ""
