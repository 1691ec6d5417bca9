"""Tests for the triangular board, puzzles, and serialization."""

import hashlib
import itertools
import json
import re

import pytest
import reference_board
from conftest import demo_puzzle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twostep import search
from twostep.algebra import YPoly, y
from twostep.board import (
    Puzzle,
    all_edges,
    board_table,
    border_edge,
    border_position,
    cell_ahead,
    cell_sides,
    down_cell_edges,
    down_cells,
    edge_weight,
    on_board,
    puzzle_from_json,
    puzzle_to_json,
    render_svg,
    render_text,
    rhombus_inner_edge,
    rhombus_outer_edges,
    rhombus_position,
    rhombus_weight,
    up_cell_edges,
    up_cells,
)
from twostep.labels import IN_DOWN, IN_UP
from twostep.search import enumerate_puzzles
from twostep.strings import all_strings, bruhat_leq, contents_up_to, parse


def test_cell_counts():
    n = 5
    assert len(list(up_cells(n))) == n * (n + 1) // 2
    assert len(list(down_cells(n))) == n * (n - 1) // 2
    assert len(all_edges(n)) == 3 * n * (n + 1) // 2


def test_cell_edges_shared():
    # D(x, y) shares its nw edge with U(x, y) and its top with U(x, y-1)
    a, b, h = up_cell_edges(1, 2)
    nw, ne, top = down_cell_edges(1, 2)
    assert nw == b
    assert top == up_cell_edges(1, 1)[2]
    assert ne == up_cell_edges(2, 2)[0]


def test_rhombus_geometry():
    r = (1, 2)  # vertical rhombus: U(1,2) over D(1,3)
    P = Puzzle(4, {}, frozenset({r}))
    assert P.covered_cells() == ({(1, 2)}, {(1, 3)})
    cells = [("U", 1, 2), ("D", 1, 3), ("U", 1, 3), ("D", 1, 2), ("D", 2, 3)]
    cover = {(c.kind, *c.anchor): c.cover for c in board_table(4).cells}
    assert [cover[c] if cover[c] in P.rhombi else None for c in cells] == [r, r, None, None, None]
    inner = rhombus_inner_edge(r)
    assert inner == ("H", 1, 2)
    (p1, p2), (q1, q2) = rhombus_outer_edges(r)
    assert inner not in {p1, p2, q1, q2}


def test_edge_weights():
    n = 4
    assert edge_weight(("B", 2, 3), n) == y(3)
    assert edge_weight(("A", 1, 2), n) == y(n - 2 + 1)
    assert edge_weight(("H", 0, n - 1), n) == y(1)  # bottom border
    assert edge_weight(("H", 0, 1), n) == YPoly.zero()  # interior horizontal


def test_rhombus_position():
    # a vertical rhombus at (x, y) sits at matrix position (x+1, n-y+x)
    assert rhombus_position(0, 1, 4) == (1, 3)
    assert rhombus_position(2, 3, 5) == (3, 4)
    assert rhombus_weight(0, 1, 4) == y(3) - y(1)


def test_demo_puzzle_valid():
    P = demo_puzzle()
    assert P.validate() == []
    u, v, w = P.boundary()
    assert len(u) == len(v) == len(w) == P.n
    assert P.weight().is_homogeneous()


def test_weight_degree_counts_vertical_rhombi():
    P = demo_puzzle()
    assert P.weight().degree() == len(P.rhombi)


def test_dual_involution():
    P = demo_puzzle()
    D = P.dual()
    assert D.validate() == []
    assert D.dual() == P


def test_identity_is_the_sorted_labels():
    P = demo_puzzle()
    Q = Puzzle(P.n, dict(reversed(P.labels.items())), P.rhombi)
    assert list(Q.labels) != list(P.labels)
    assert Q == P and hash(Q) == hash(P)
    assert Puzzle(P.n, P.labels, frozenset()) != P
    assert (P == object()) is False


def test_listed_puzzles_sort_no_key_until_compared():
    # the identity key is built on the first comparison or hash, so a
    # listing that nobody compares sorts no labels
    search._listing.cache_clear()
    triples = [("1012", "1120", "1120"), ("1021", "1120", "1210"), ("1002", "0210", "2010")]
    listed = [P for t in triples for P in enumerate_puzzles(*map(parse, t))]
    assert len(listed) == 9
    assert not any("key" in vars(P) for P in listed)
    for P in listed:
        hash(P)
        assert "key" in vars(P)


def test_json_round_trip():
    for P in (demo_puzzle(), *enumerate_puzzles(*(parse("120"),) * 3)):
        assert puzzle_from_json(puzzle_to_json(P)) == P


def test_json_rejects_garbage():
    with pytest.raises(Exception):
        puzzle_from_json("{}")


@pytest.mark.parametrize(
    "region, labels",
    [([2.0, 0, 2.0, 0, 2.0, 0], [0, 1, 1]), ([2, 0, 2, 0, 2, 0], [[0], 1, 1])],
    ids=["float-region", "list-label"],
)
def test_json_rejects_non_integers(region, labels):
    piece = {"kind": "triangle", "anchor": [0, 0], "labels": labels}
    with pytest.raises(ValueError):
        puzzle_from_json(json.dumps({"region": region, "pieces": [piece]}))


# the demo puzzle (boundary 10, 10, 10) as JSON pieces
DEMO_PIECES = [
    {"kind": "rhombus", "orientation": 0, "anchor": [0, 0], "labels": [1, 0]},
    {"kind": "triangle", "orientation": 0, "anchor": [0, 1], "labels": [1, 1, 1]},
    {"kind": "triangle", "orientation": 0, "anchor": [1, 1], "labels": [0, 0, 0]},
]


def test_demo_pieces_parse():
    text = json.dumps({"region": [2, 0, 2, 0, 2, 0], "pieces": DEMO_PIECES})
    assert puzzle_from_json(text) == demo_puzzle()


def _replace(k, **fields):
    return DEMO_PIECES[:k] + [{**DEMO_PIECES[k], **fields}] + DEMO_PIECES[k + 1:]


@pytest.mark.parametrize(
    "pieces, message",
    [
        pytest.param(
            DEMO_PIECES + [{"kind": "triangle", "anchor": [5, 5], "labels": [0, 0, 0]}],
            "leaves the board",
            id="triangle-off-board",
        ),
        pytest.param(
            _replace(0, anchor=[0, 1]) + [DEMO_PIECES[1]], "leaves the board", id="rhombus-off-board"
        ),
        pytest.param(_replace(1, labels=[1, 1, 1, 1]), "takes 3 labels", id="four-labels"),
        pytest.param(_replace(0, labels=[1, 0, 0]), "takes 2 labels", id="rhombus-three-labels"),
        pytest.param(
            DEMO_PIECES + [{**DEMO_PIECES[2], "labels": [1, 1, 1]}],
            "two pieces cover cell ('U', 1, 1)",
            id="same-cell-twice",
        ),
        pytest.param(
            DEMO_PIECES + [{"kind": "triangle", "anchor": [0, 0], "labels": [0, 1, 1]}],
            "two pieces cover cell ('U', 0, 0)",
            id="triangle-on-rhombus",
        ),
        pytest.param(
            _replace(2, labels=[1, 0, 0]), "is labeled both", id="edges-disagree"
        ),
        pytest.param(_replace(0, orientation=2.0), "non-integer", id="float-orientation"),
        pytest.param(
            _replace(0, orientation=1), "rhombus at (0, 0) has orientation 1, not 0", id="rhombus-1"
        ),
        pytest.param(
            _replace(0, orientation=4), "rhombus at (0, 0) has orientation 4, not 0", id="rhombus-4"
        ),
    ],
)
def test_json_rejects_non_tilings(pieces, message):
    text = json.dumps({"region": [2, 0, 2, 0, 2, 0], "pieces": pieces})
    with pytest.raises(ValueError, match=re.escape(message)):
        puzzle_from_json(text)


def test_validate_reports_rhombus_off_the_board():
    # the rhombus hangs below the bottom row: its interior edge is a
    # border edge, so the boundary cannot be read
    labels = {("A", 0, 0): 0, ("B", 0, 0): 1, ("H", 0, 0): 1, ("A", 1, 1): 0}
    labels |= {("B", 1, 1): 0, ("H", 1, 1): 0, ("A", 0, 1): 0, ("B", 0, 1): 1}
    P = Puzzle(2, labels, frozenset({(0, 1)}))
    assert P.validate() == ["rhombus (0, 1) leaves the board"]


def test_render():
    P = demo_puzzle()
    assert render_text(P).strip()
    svg = render_svg(P)
    assert svg.startswith("<svg") or "<svg" in svg


def test_puzzle_validate_catches_bad_label():
    P = demo_puzzle()
    labels = dict(P.labels)
    e = ("A", 0, P.n - 1)
    labels[e] = {0: 1, 1: 2, 2: 0}[labels[e]]
    assert Puzzle(P.n, labels, P.rhombi).validate() != []


def test_render_svg_pinned():
    # sha256 over the SVG of every puzzle with n <= 4, recorded before
    # the rhombus lost its orientation; guards the corner order, which
    # float rounding starts at the lower-left corner for some (x, y)
    digest = hashlib.sha256()
    count = 0
    for a, b, n in contents_up_to(4):
        for u, v, w in itertools.product(all_strings(a, b, n), repeat=3):
            for P in enumerate_puzzles(u, v, w):
                count += 1
                digest.update(render_svg(P).encode())
    assert (count, digest.hexdigest()) == (
        1213,
        "ddb8fcd8646d05ff712c9d6aa8cffef47be12bdab60f48dc61b3936dffc97d15",
    )


def _listed(max_n):
    """Every puzzle with n <= max_n, in ``contents_up_to`` and
    ``itertools.product`` order; a triple without ``u <= w`` and
    ``v <= w`` has no puzzle and is skipped."""
    for a, b, n in contents_up_to(max_n):
        for u, v, w in itertools.product(all_strings(a, b, n), repeat=3):
            if bruhat_leq(u, w) and bruhat_leq(v, w):
                yield from enumerate_puzzles(u, v, w)


def test_puzzle_to_json_pinned():
    # sha256 over the piece-list JSON of every puzzle with n <= 4,
    # recorded before the piece walk was shared with validate and SVG
    digest = hashlib.sha256()
    count = 0
    for P in _listed(4):
        count += 1
        digest.update((puzzle_to_json(P) + "\n").encode())
    assert (count, digest.hexdigest()) == (
        1213,
        "8d80426e517a1416d98a74a13152cc1a114d5f7968a3dabdc3f1a312459e3401",
    )


def test_validate_messages_pinned():
    # sha256 over validate()'s report for every puzzle with n <= 3 with
    # one edge relabeled to each other label, recorded before the piece
    # walk was shared: pins every message and its order, down-triangle
    # checks included
    digest = hashlib.sha256()
    count = 0
    for P in _listed(3):
        for e, label in sorted(P.labels.items()):
            for other in range(8):
                if other != label:
                    labels = P.labels.copy()
                    labels[e] = other
                    count += 1
                    report = Puzzle(P.n, labels, P.rhombi).validate()
                    digest.update((repr(report) + "\n").encode())
    assert (count, digest.hexdigest()) == (
        8855,
        "6630e93eca8c4613b63ea94a9b374a0bdc402c0e61ee93a3295a796f83555afa",
    )


def test_boundary_reads_border_edges():
    # Puzzle.boundary spells the border edges out; they must be border_edge's
    count = 0
    for P in _listed(5):
        count += 1
        n = P.n
        expect = tuple(
            tuple(P.labels[border_edge(b, i, n)[0]] for i in range(1, n + 1)) for b in "uvw"
        )
        assert P.boundary() == expect
    assert count == 23913


def test_border_position_inverts_border_edge():
    for n in range(1, 9):
        for b in "uvw":
            for i in range(1, n + 1):
                edge, d = border_edge(b, i, n)
                assert border_position(edge, n) == (b, i)
                # a gash pointing in has a cell ahead and none behind
                assert cell_ahead(edge, d, n) is not None
                assert cell_ahead(edge, (d + 3) % 6, n) is None
    with pytest.raises(ValueError, match="not on the border"):
        border_position(("H", 0, 0), 2)


def test_cell_ahead_reads_cell_sides():
    for n in range(1, 9):
        for kind, cells, ins in (("U", up_cells, IN_UP), ("D", down_cells, IN_DOWN)):
            for x, yy in cells(n):
                c = (kind, x, yy)
                for s in range(3):
                    assert cell_ahead(cell_sides(c)[s], ins[s], n) == c
    with pytest.raises(ValueError, match="not perpendicular"):
        cell_ahead(("H", 0, 0), 0, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_board_table_matches_the_geometry(n):
    table = board_table(n)
    assert table.edges == set(all_edges(n))
    cells = [("U", *c) for c in up_cells(n)] + [("D", *c) for c in down_cells(n)]
    assert [(c.kind, *c.anchor) for c in table.cells] == cells
    for c in table.cells:
        cell = (c.kind, *c.anchor)
        assert on_board(cell, n)
        assert c.sides == cell_sides(cell)
        ups, downs = Puzzle(n, {}, frozenset({c.cover})).covered_cells()
        assert c.anchor in (ups if c.kind == "U" else downs)
    # a rhombus fits when both of its cells are on the board
    fits = {
        (x, yy) for x in range(-1, n + 1) for yy in range(-1, n + 1)
        if on_board(("U", x, yy), n) and on_board(("D", x, yy + 1), n)
    }
    assert table.anchors == fits
    assert table.border == tuple(
        tuple(border_edge(b, i, n)[0] for i in range(1, n + 1)) for b in "uvw"
    )
    for e in all_edges(n):
        for d in range(6):
            try:
                cell = cell_ahead(e, d, n)
            except ValueError:
                assert (e, d) not in table.ahead
                continue
            hit = table.ahead[e, d]
            if cell is None:
                assert hit is None
            else:
                c, s = hit
                assert (c.kind, *c.anchor) == cell
                assert s == cell_sides(cell).index(e)
    # each edge has two directions perpendicular to it
    assert len(table.ahead) == 2 * len(table.edges)


@pytest.fixture(scope="module")
def listed_4_5():
    """Every puzzle with n = 4, and those of the n = 5 triples whose
    ``w`` is every seventh string of its content (3,574 puzzles)."""
    out = [P for P in _listed(4) if P.n == 4]
    for a, b, n in contents_up_to(5):
        if n == 5:
            ss = all_strings(a, b, n)
            for u, v, w in itertools.product(ss, ss, ss[::7]):
                if bruhat_leq(u, w) and bruhat_leq(v, w):
                    out.extend(enumerate_puzzles(u, v, w))
    return out


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_validate_matches_reference(listed_4_5, data):
    # the table-driven validate reports the reference's messages, in its
    # order, for a listed puzzle with one edge relabeled, one edge
    # deleted, or one rhombus added off the board
    P = data.draw(st.sampled_from(listed_4_5))
    labels, rhombi = P.labels.copy(), P.rhombi
    change = data.draw(st.sampled_from(["relabel", "delete", "off-board rhombus"]))
    if change == "off-board rhombus":
        r = data.draw(st.tuples(st.integers(-1, P.n), st.integers(-1, P.n)))
        assume(r not in board_table(P.n).anchors)
        rhombi = rhombi | {r}
    else:
        e = data.draw(st.sampled_from(sorted(labels)))
        if change == "delete":
            del labels[e]
        else:
            labels[e] = data.draw(st.sampled_from([l for l in range(8) if l != labels[e]]))
    Q = Puzzle(P.n, labels, rhombi)
    assert Q.validate() == reference_board.validate(Q)
    assert P.validate() == reference_board.validate(P) == []
