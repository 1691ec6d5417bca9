"""Source-level checks on the ``twostep`` package."""

import ast
import importlib
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


ROOT = Path(__file__).resolve().parents[1]

# public functions that only tests call, each kept for a stated reason
TEST_ONLY = {
    "is_graham_positive": "acceptance criterion 9 (Graham positivity)",
    "psi_infinity": "acceptance criterion 10 (the sliding bijection)",
    "in_backward_set": "acceptance criterion 10 (the sliding bijection)",
    "chevalley": "the equivariant Chevalley rule, for a quantum suite",
    "rotate_gash": "named in the benchmark tracer's UNTIMED list",
}


def _references(node) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def test_public_names_have_callers():
    # every module-level public def or class in the package or the
    # benchmark is referenced outside its own definition; a string (a
    # docstring, an ``__all__`` entry) is no reference
    package = sorted((ROOT / "src" / "twostep").glob("*.py"))
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            refs = _references(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)
                if not stmt.name.startswith("_"):
                    defined[stmt.name] = f"{path.parent.name}/{path.name}"
            referenced |= refs
    unused = {name: defined[name] for name in set(defined) - referenced}
    assert sorted(unused) == sorted(TEST_ONLY), "\n".join(
        f"{path}:{name}" for name, path in sorted(unused.items())
    )

    # the benchmark tracer wraps every ``__all__`` entry by ``getattr``
    missing = []
    for path in package:
        module = importlib.import_module(f"twostep.{path.stem}".removesuffix(".__init__"))
        missing += [
            f"{path.stem}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert missing == []
