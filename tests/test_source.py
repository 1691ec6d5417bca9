"""Source-level checks on the ``twostep`` package."""

import ast
from pathlib import Path

import twostep


def test_no_assert_statements():
    # invariants raise typed exceptions: ``python -O`` strips ``assert``
    found = []
    for path in sorted(Path(twostep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
