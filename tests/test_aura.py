"""Tests for the aura calculus on semi-labeled edges and gashes."""

import itertools

import pytest
from conftest import demo_puzzle

from twostep.algebra import Tower
from twostep.aura import (
    aura_table,
    check_boundary_aura,
    check_cover_aura,
    check_gash_classes,
    check_mutation_closed_sum,
    check_recursion,
    check_scab_sum,
    check_scab_weight,
    check_temporary_sum,
    check_two_sums,
    equivariant_flawed_aura,
    flawed_aura,
    gamma_form,
    gash_aura,
)
from twostep.mutation import enumerate_flawed, mutation_component, opposite
from twostep.strings import all_strings, parse


def test_aura_table_shape():
    t = aura_table()
    assert len(t) == 48
    assert set(t) == {(d, l) for d in range(6) for l in range(8)}


def test_simple_edge_auras():
    # simple label a seen from direction d: delta_a * zeta^(2d+1)
    t = aura_table()
    for d in range(6):
        for a in range(3):
            assert t[(d, a)] == Tower.delta(a) * Tower.zeta(2 * d + 1)


def test_composed_edge_auras():
    # horizontal edge, composed labels seen from above (d = 1)
    z = Tower.zeta
    d0, d1, d2 = Tower.delta(0), Tower.delta(1), Tower.delta(2)
    t = aura_table()
    assert t[(1, 3)] == d1 * z(5) + d0 * z(1)
    assert t[(1, 4)] == d1 * z(1) + d2 * z(5)


def test_rotation_equivariance():
    t = aura_table()
    for (d, l), v in t.items():
        assert t[((d + 1) % 6, l)] == v * Tower.zeta(2)


def test_gash_auras():
    z = Tower.zeta
    d0, d1, d2 = (Tower.delta(i) for i in range(3))
    assert gash_aura((1, 0, 4)) == d0 * z(3) + d1 * z(7) + d2 * z(11)
    assert gash_aura((1, 0, 1)) == (d0 - d1) * z(3)


def test_opposite_gash_negates_aura():
    for g in [(1, 1, 0), (2, 4, 5), (0, 3, 0), (5, 7, 3)]:
        assert gash_aura(opposite(g)) == -gash_aura(g)


def test_gamma_form():
    d0, d1, d2 = (Tower.delta(i) for i in range(3))
    assert gamma_form(1, 2, 4) == d0 + d1 + d2 * 2


def test_check_gash_classes():
    assert check_gash_classes()["pass"]


def test_boundary_and_scab_sum_on_demo():
    P = demo_puzzle()
    assert check_boundary_aura(P)["pass"]
    assert check_scab_sum(P)["pass"]


def test_flaw_checks_on_small_content():
    seen_temp = seen_cover = seen_scab = 0
    for u, v, w in itertools.product(all_strings(1, 2, 3), repeat=3):
        for P in enumerate_flawed(u, v, w):
            if P.flaw_type == "temporary":
                assert check_temporary_sum(P)["pass"]
                seen_temp += 1
            elif P.flaw_type == "gashpair":
                assert check_cover_aura(P)["pass"]
                seen_cover += 1
            else:
                assert check_scab_weight(P)["pass"]
                seen_scab += 1
    assert seen_temp and seen_cover and seen_scab


def test_mutation_closed_sum_small():
    seen = set()
    for u, v, w in itertools.product(all_strings(1, 1, 3), repeat=3):
        for P in enumerate_flawed(u, v, w):
            if P in seen:
                continue
            members = list(mutation_component(P))
            seen.update(members)
            assert check_mutation_closed_sum(members)["pass"]


def test_two_sums_and_recursion_small():
    for u, v, w in itertools.product(all_strings(1, 1, 3), repeat=3):
        assert check_two_sums(u, v, w)["pass"]
        assert check_recursion(u, v, w)["pass"]


def test_report_shape():
    # a passing report keeps its five keys but formats no side
    r = check_boundary_aura(demo_puzzle())
    assert set(r) == {"check", "instance", "pass", "lhs", "rhs"}
    assert r["pass"] and r["lhs"] == r["rhs"] == ""


def test_failing_report_formats_its_sides(monkeypatch):
    import twostep.aura as aura

    monkeypatch.setattr(aura, "gamma_form", lambda a, b, n: Tower.zero())
    r = check_boundary_aura(demo_puzzle())
    assert not r["pass"] and r["rhs"] == "0; 0; 0"
    assert r["lhs"].count("; ") == 2 and "0" not in r["lhs"].split("; ")
    bad = aura._report("c", "i", Tower.const(1), Tower.zero())
    assert (bad["pass"], bad["lhs"], bad["rhs"]) == (False, str(Tower.const(1)), "0")


def test_flawed_aura_rejects_temporary():
    for u, v, w in itertools.product(all_strings(1, 2, 3), repeat=3):
        for P in enumerate_flawed(u, v, w):
            if P.flaw_type == "temporary":
                with pytest.raises(ValueError):
                    flawed_aura(P)
                with pytest.raises(ValueError):
                    equivariant_flawed_aura(P)
                return
    pytest.fail("no temporary flaw found")
