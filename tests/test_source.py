"""Source-level checks on the ``twostep`` package."""

import ast
import importlib
import importlib.util
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


def _cache_bounds(func):
    """The ``maxsize`` of each ``functools`` ``cache`` or ``lru_cache``
    decorator of ``func``, bare, called or through ``functools.``; None
    is unbounded.  ``cached_property`` keeps one value per instance and
    is no such cache."""
    for decorator in func.decorator_list:
        call = isinstance(decorator, ast.Call)
        name = decorator.func if call else decorator
        name = name.attr if isinstance(name, ast.Attribute) else getattr(name, "id", None)
        if name == "cache":
            yield None
        elif name == "lru_cache":
            args = []
            if call:
                args = decorator.args + [k.value for k in decorator.keywords if k.arg == "maxsize"]
            yield ast.literal_eval(args[0]) if args else 128  # lru_cache's default


def test_every_cache_is_listed_with_its_bound():
    # adding or resizing a memo is a visible decision
    found = {}
    for path in sorted(Path(twostep.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for bound in _cache_bounds(node):
                    found[f"{path.stem}.{node.name}"] = bound
    assert found == {
        "board.board_table": 64,
        "labels._tables_cached": 4,
        "search._listing": 64,
        "strings.oracle_constant": None,
    }
    # as the running functions report them
    for name, bound in found.items():
        module, func = name.split(".")
        cached = getattr(importlib.import_module(f"twostep.{module}"), func)
        assert cached.cache_parameters()["maxsize"] == bound, name


ROOT = Path(__file__).resolve().parents[1]

# public functions that only tests call, each kept for a stated reason
TEST_ONLY = {
    "is_graham_positive": "acceptance criterion 9 (Graham positivity)",
    "psi_infinity": "acceptance criterion 10 (the sliding bijection)",
    "in_backward_set": "acceptance criterion 10 (the sliding bijection)",
    "chevalley": "the equivariant Chevalley rule, for a quantum suite",
}


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node, enclosing: frozenset = frozenset()) -> set[str]:
    """Names that ``node`` references, an attribute as ``.name``, except
    a def's or class's own name inside its own body."""
    if isinstance(node, DEFS):
        enclosing = enclosing | {node.name, "." + node.name}
    out = set()
    if isinstance(node, ast.Name):
        out.add(node.id)
    elif isinstance(node, ast.Attribute):
        out.add("." + node.attr)
    elif isinstance(node, ast.ImportFrom):
        out.update(a.name for a in node.names)
    for child in ast.iter_child_nodes(node):
        out |= _references(child, enclosing)
    return out - enclosing


def _public_defs(stmt, with_methods: bool):
    """(shown name, def) for a public module-level def or class and,
    with ``with_methods``, the public methods of a class; dunders and
    ``_``-prefixed names are skipped."""
    if not isinstance(stmt, DEFS):
        return []
    out = [(stmt.name, stmt)]
    if with_methods and isinstance(stmt, ast.ClassDef):
        out += [(f"{stmt.name}.{m.name}", m) for m in stmt.body if isinstance(m, DEFS)]
    return [(shown, node) for shown, node in out if not node.name.startswith("_")]


def test_public_names_have_callers():
    # every module-level public def or class in the package or the
    # benchmark, and every public method of a package class, is
    # referenced outside its own definition, a method only as an
    # attribute; a string (a docstring, an ``__all__`` entry) is no
    # reference
    package = sorted((ROOT / "src" / "twostep").glob("*.py"))
    defined: dict[str, tuple[set[str], str]] = {}
    referenced: set[str] = set()
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced |= _references(tree)
        for stmt in tree.body:
            for shown, node in _public_defs(stmt, path in package):
                # a method is called as ``obj.name``; a module-level def
                # is imported, called by name, or read as ``module.name``
                refs = {"." + node.name} if "." in shown else {node.name, "." + node.name}
                defined[shown] = (refs, f"{path.parent.name}/{path.name}")
    unused = {shown: path for shown, (refs, path) in defined.items() if not refs & referenced}
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


def test_traced_methods_are_defined_in_their_class():
    # the benchmark tracer wraps each ``METHODS`` entry on its class, so
    # an inherited or aliased-away method would break the traced run
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{layer}.{cls_name}.{attr}"
        for layer, entries in tracer.METHODS.items()
        for cls_name, attr in entries
        if attr not in vars(getattr(tracer.MODULES[layer], cls_name))
    ]
    assert missing == []


# defaulted parameters that no call in the package or the benchmark passes,
# each kept for a stated reason
DEFAULT_ONLY = {
    "main(argv)": "the tests drive the CLI in-process",
}


def _defaulted(func: ast.FunctionDef, in_class: bool) -> list[tuple[str, int | None]]:
    """(name, position in a call, None if keyword-only) of each defaulted
    parameter of ``func``; a method's ``self`` or ``cls`` takes no
    position in a call."""
    a = func.args
    pos = a.posonlyargs + a.args
    skip = in_class and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in func.decorator_list
    )
    out = [(p.arg, i - skip) for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
    out += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name`` at ``position``
    (None: keyword-only), by position, keyword, ``*`` or ``**``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_defaults_are_passed():
    # a parameter with a default that no call passes has one value in
    # use, and should be a constant
    package = sorted((ROOT / "src" / "twostep").glob("*.py"))
    calls: dict[str, list[ast.Call]] = {}
    defaulted = []
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                calls.setdefault(name, []).append(node)
            elif isinstance(node, ast.ClassDef) and path in package:
                for m in node.body:
                    if isinstance(m, ast.FunctionDef):
                        methods.add(m)
                        # a class is called by its own name
                        called = node.name if m.name == "__init__" else m.name
                        defaulted += [
                            (f"{node.name}.{m.name}({p})", called, p, i)
                            for p, i in _defaulted(m, True)
                        ]
            elif isinstance(node, ast.FunctionDef) and path in package and node not in methods:
                defaulted += [
                    (f"{node.name}({p})", node.name, p, i) for p, i in _defaulted(node, False)
                ]
    unpassed = [
        shown
        for shown, called, p, i in defaulted
        if not any(_passes(c, p, i) for c in calls.get(called, ()))
    ]
    assert sorted(unpassed) == sorted(DEFAULT_ONLY)
