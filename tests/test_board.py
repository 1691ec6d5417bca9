"""Tests for the triangular board, puzzles, and serialization."""

import json

import pytest
from conftest import demo_puzzle

from twostep.algebra import YPoly, y
from twostep.board import (
    Puzzle,
    all_edges,
    down_cell_edges,
    down_cells,
    edge_weight,
    puzzle_from_json,
    puzzle_to_json,
    render_svg,
    render_text,
    rhombus_cells,
    rhombus_inner_edge,
    rhombus_outer_edges,
    rhombus_position,
    up_cell_edges,
    up_cells,
)
from twostep.search import enumerate_puzzles
from twostep.strings import parse


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
    r = (1, 2, 0)  # vertical rhombus: U(1,2) over D(1,3)
    assert rhombus_cells(r) == ((1, 2), (1, 3))
    inner = rhombus_inner_edge(r)
    (p1, p2), (q1, q2) = rhombus_outer_edges(r)
    assert inner not in {p1, p2, q1, q2}


def test_edge_weights():
    n = 4
    assert edge_weight(("B", 2, 3), n) == y(3)
    assert edge_weight(("A", 1, 2), n) == y(n - 2 + 1)
    assert edge_weight(("H", 0, n - 1), n) == y(1)  # bottom border
    assert edge_weight(("H", 0, 1), n) == YPoly()  # interior horizontal


def test_rhombus_position():
    # a vertical rhombus at (x, y) sits at matrix position (x+1, n-y+x)
    assert rhombus_position(0, 1, 4) == (1, 3)
    assert rhombus_position(2, 3, 5) == (3, 4)


def test_demo_puzzle_valid():
    P = demo_puzzle()
    assert P.validate() == []
    u, v, w = P.boundary()
    assert len(u) == len(v) == len(w) == P.n
    assert P.weight().is_homogeneous()


def test_weight_degree_counts_vertical_rhombi():
    P = demo_puzzle()
    assert P.weight().degree() == len(P.vertical_rhombi())


def test_rotation():
    P = demo_puzzle()
    Q = P.rotate(2)
    assert Q.validate() == []
    u, v, w = P.boundary()
    assert Q.boundary() == (tuple(reversed(w)), u, tuple(reversed(v)))
    assert P.rotate(2).rotate(2).rotate(2) == P
    with pytest.raises(ValueError):
        P.rotate(1)


def test_dual_involution():
    P = demo_puzzle()
    D = P.dual()
    assert D.validate() == []
    assert D.dual() == P


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


def test_validate_reports_rhombus_off_the_board():
    # the rhombus hangs below the bottom row: its interior edge is a
    # border edge, so the boundary cannot be read
    pieces = [
        {"kind": "rhombus", "anchor": [0, 1], "labels": [1, 0]},
        {"kind": "triangle", "anchor": [0, 0], "labels": [0, 1, 1]},
        {"kind": "triangle", "anchor": [1, 1], "labels": [0, 0, 0]},
    ]
    P = puzzle_from_json(json.dumps({"region": [2, 0, 2, 0, 2, 0], "pieces": pieces}))
    assert P.validate() == ["rhombus (0, 1, 0) leaves the board"]


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
