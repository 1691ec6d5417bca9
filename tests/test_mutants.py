"""Every check must catch a bug: small named faults, each applied with
``monkeypatch``, and the verification that must fail on it.

Each fault runs at the smallest size that catches it.  A suite that
still exits 0 with one of these faults in place checks nothing of
what the fault breaks.
"""

import json

import pytest

from twostep import board, cli, mutation
from twostep.algebra import Tower
from twostep.board import rhombus_position

# (name, object, attribute, faulty replacement, argv of the check that must exit 1)
MUTANTS = [
    (
        "tower-sub-adds",
        Tower,
        "__sub__",
        lambda a, b: a + b,
        ["verify", "--suite", "aura", "--max-n", "3"],
    ),
    (
        "tower-neg-is-identity",
        Tower,
        "__neg__",
        lambda a: a,
        ["verify", "--suite", "aura", "--max-n", "3"],
    ),
    (
        "rhombus-position-swapped",
        board,
        "rhombus_position",
        lambda x, yy, n: rhombus_position(x, yy, n)[::-1],
        ["verify", "--suite", "oracle", "--max-n", "3"],
    ),
    (
        "gash-class-is-singleton",
        mutation,
        "gash_class",
        lambda g: frozenset({g}),
        ["verify", "--suite", "gashes"],
    ),
]


@pytest.mark.parametrize(
    "target, attr, fault, argv", [m[1:] for m in MUTANTS], ids=[m[0] for m in MUTANTS]
)
def test_mutant_is_caught(monkeypatch, capsys, target, attr, fault, argv):
    monkeypatch.setattr(target, attr, fault)
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False
