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


def _unbounded_cache(decorator):
    # ``cache``, ``lru_cache(None)`` or ``lru_cache(maxsize=None)``,
    # bare or through ``functools.``
    name = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = name.attr if isinstance(name, ast.Attribute) else getattr(name, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(decorator, ast.Call):
        return False
    args = decorator.args + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return any(isinstance(a, ast.Constant) and a.value is None for a in args)


def test_oracle_is_the_only_unbounded_cache():
    # an unbounded memo grows for the life of the process; the oracle's
    # is kept because callers clear and size it as ``oracle_constant``
    found = []
    for path in sorted(Path(twostep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.stem}.{node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(_unbounded_cache(d) for d in node.decorator_list)
        ]
    assert found == ["strings.oracle_constant"]
