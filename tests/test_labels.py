"""Tests for the puzzle-piece label tables."""

import pytest
from conftest import table_text

from twostep.labels import (
    COMPOSED,
    SIMPLE,
    PieceTables,
    dual_label,
    tables,
    validate_tables,
)


def test_simple_labels():
    assert SIMPLE == (0, 1, 2)
    assert COMPOSED == (3, 4, 5, 6, 7)


def test_dual_label_involution():
    for l in range(8):
        assert dual_label(dual_label(l)) == l
    assert dual_label(0) == 2 and dual_label(1) == 1 and dual_label(5) == 5
    assert dual_label(3) == 4 and dual_label(6) == 7


def test_up_triangles_rotation_closed():
    t = tables()
    ups = t.up_triangles
    assert len(ups) == 18
    for l, r, h in ups:
        assert (h, l, r) in ups  # 120-degree rotation


def test_down_is_flipped_up():
    t = tables()
    for tri in t.up_triangles:
        l, r, h = tri
        assert t.valid_up(l, r, h)
        assert t.valid_down(r, l, h)
    assert not t.valid_down(0, 1, 2)


def test_rhombi():
    t = tables()
    assert set(t.rhombi) == {
        (1, 0), (2, 1), (2, 0), (2, 3), (4, 0), (4, 3), (6, 0), (2, 7)
    }


def test_validate_tables():
    assert validate_tables(tables()) == []


def test_dual_tables():
    t = tables()
    d = t.dual()
    assert d.up_triangles == frozenset(
        (dual_label(r), dual_label(l), dual_label(h)) for l, r, h in t.up_triangles
    )


def test_two_replacement_pieces_rejected():
    # a gash entering (0,0,0) on its left side with label 1 could become
    # (1,0,3) or (1,2,0)
    t = PieceTables(((0, 0, 0), (1, 0, 3), (1, 2, 0)), ())
    with pytest.raises(ValueError, match="two replacement pieces"):
        t.replacements


def test_table_path_override(monkeypatch, tmp_path):
    copy = tmp_path / "tables.txt"
    copy.write_text(table_text())
    monkeypatch.setenv("PUZZLE_TABLE_PATH", str(copy))
    assert validate_tables(tables()) == []


@pytest.mark.parametrize(
    "old, new, problem",
    [
        pytest.param("triangle 1 0 3", "triangle 0 1 3", "invalid piece tables", id="triangle"),
        # passes the structural checks but leaves a scab unresolved
        pytest.param(
            "rhombus 4 3", "rhombus 5 5", r"scab \(1, 4, 3, 6\) has 0 resolutions", id="scab"
        ),
    ],
)
def test_corrupt_table_rejected(monkeypatch, tmp_path, old, new, problem):
    bad = tmp_path / "bad_tables.txt"
    bad.write_text(table_text().replace(old, new))
    monkeypatch.setenv("PUZZLE_TABLE_PATH", str(bad))
    with pytest.raises(ValueError, match=problem):
        tables()


def _derived_tables():
    """Each public accessor of a derived table, with the attribute of
    ``tables()`` it must return."""
    from twostep import aura, mutation

    g = (1, 1, 0)
    return [
        (lambda: tables().replacements, lambda t: t.replacements),
        (mutation.immediate_moves, lambda t: t.moves),
        (lambda: mutation.gash_class(g), lambda t: t.gash_classes[g]),
        (mutation.temporary_table, lambda t: t.temporaries),
        (mutation.down_temporary_table, lambda t: t.down_temporaries),
        (mutation.scab_table, lambda t: t.scabs),
        (mutation.forward_gashes, lambda t: t.forward_gashes),
        (mutation.backward_gashes, lambda t: t.backward_gashes),
        (aura.aura_table, lambda t: t.aura),
    ]


def test_derived_tables_have_one_owner(monkeypatch, tmp_path):
    old = tables()
    for accessor, attr in _derived_tables():
        assert accessor() is attr(old)
    copy = tmp_path / "tables.txt"
    copy.write_text(table_text())
    monkeypatch.setenv("PUZZLE_TABLE_PATH", str(copy))
    new = tables()
    assert new is not old
    for accessor, attr in _derived_tables():
        assert accessor() is attr(new)
        assert accessor() is not attr(old)
