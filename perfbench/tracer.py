"""Spans and counters around the public calls of each twostep layer.

``Tracer.install()`` replaces each wrapped function by a recording
wrapper in its own module and at every import site: any ``twostep``
module attribute that is the original object is rebound, because
``mutation`` and ``aura`` import ``search`` names directly.  Methods and
properties are wrapped on their class.  A generator function gets one
span per resumption, so a span covers only the time spent inside it.

Spans are kept in memory as ``(name, start, end, parent)`` in flat
arrays; ``metrics()`` derives self time (a span's duration minus what
its child spans cover) and the per-layer metrics from them.  Nothing
in ``src/`` is changed.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

from twostep import algebra, aura, board, labels, mutation, search, strings

MODULES = {
    "algebra": algebra,
    "labels": labels,
    "strings": strings,
    "board": board,
    "search": search,
    "mutation": mutation,
    "aura": aura,
}

# Public helpers too small to time: a span costs more than their work,
# so their time stays in the caller's self time.
UNTIMED = {
    "algebra": {"y", "zeta_pow", "ypoly_const"},
    "labels": {"label_to_string", "dual_label"},
    "strings": {"parse", "fmt", "content", "identity_string", "length"},
    "board": {
        "up_cells",
        "down_cells",
        "up_cell_edges",
        "down_cell_edges",
        "rhombus_outer_edges",
        "rhombus_inner_edge",
        "left_projection",
        "right_projection",
        "rhombus_position",
    },
    "mutation": {"opposite", "rotate_gash", "cell_ahead", "cell_behind", "cell_sides"},
}

_YPOLY_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__")
_TOWER_OPS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__")
METHODS = {
    "algebra": [("YPoly", m) for m in _YPOLY_OPS] + [("Tower", m) for m in _TOWER_OPS],
    "labels": [("PieceTables", "up_triangles")],
    "board": [("Puzzle", "validate"), ("Puzzle", "weight")],
    "mutation": [("FlawedPuzzle", "resolutions")],
}

QUANTUM = {
    "strings." + f
    for f in (
        "quantum_product",
        "gw_invariant",
        "partition_to_string",
        "string_to_partition",
        "all_partitions",
        "dual_partition_string",
        "contains_rect",
        "jd_map",
    )
}
AURA_CHECKS = {
    "boundary": "aura.check_boundary_aura",
    "scab_sum": "aura.check_scab_sum",
    "two_sums": "aura.check_two_sums",
    "recursion": "aura.check_recursion",
    "closed_sum": "aura.check_mutation_closed_sum",
}
ENUMERATORS = ("search.enumerate_puzzles", "search.enumerate_one_special")
# mutation.component_size.<k> is reported for these sizes; larger
# components are counted under mutation.component_size.large
COMPONENT_SIZES = (2, 4, 6, 8, 10, 12)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.enumerated: set = set()
        self.nonzero: set = set()
        self.component_sizes: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals: dict[int, object] = {}
        for layer, mod in MODULES.items():
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname)
                routine = inspect.isfunction(fn) or hasattr(fn, "cache_info")
                if not routine or fname in UNTIMED.get(layer, ()):
                    continue
                originals[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
            for cls_name, attr in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                name = f"{layer}.{cls_name}.{attr}"
                if isinstance(orig, property):
                    new = property(self._wrap(name, orig.fget))
                else:
                    new = self._wrap(name, orig)
                self._rebind(cls, attr, new)
        # rebind the module itself and every import site of each original
        for modname, mod in list(sys.modules.items()):
            if modname != "twostep" and not modname.startswith("twostep."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None:
                    self._rebind(mod, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def _rebind(self, obj, attr: str, new) -> None:
        self._restore.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def _id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        calls, stack = self.calls, self.stack
        s_name, s_parent, s_start, s_end = (
            self.span_name,
            self.span_parent,
            self.span_start,
            self.span_end,
        )
        clock = time.perf_counter
        after = _AFTER.get(name, _after_check if name.startswith("aura.check_") else None)
        tracer = self

        def begin() -> int:
            i = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_end.append(0.0)
            stack.append(i)
            s_start.append(clock())
            return i

        def end(i: int) -> None:
            s_end[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                if after is not None:
                    after(tracer, args, None)
                it = fn(*args, **kwargs)
                yielded = 0
                while True:
                    i = begin()
                    try:
                        item = next(it)
                    except StopIteration:
                        end(i)
                        break
                    except BaseException:
                        end(i)
                        raise
                    end(i)
                    yielded += 1
                    yield item
                tracer.counts[name + ".yielded"] += yielded
                if yielded and name == "search.enumerate_puzzles":
                    tracer.nonzero.add(tuple(args[:3]))

            wrapper = gen_wrapper
        else:

            def wrapper(*args, **kwargs):
                calls[nid] += 1
                i = begin()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    end(i)
                if after is not None:
                    after(tracer, args, out)
                return out

        return wrapper

    # -- analysis -------------------------------------------------------------

    def _aggregate(self):
        """Per name: calls, inclusive time (the spans whose parent has
        another name, so recursion is not counted twice) and self time."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        k = len(self.names)
        incl, self_t = [0.0] * k, [0.0] * k
        for i in range(n):
            nid = names[i]
            d = ends[i] - starts[i]
            self_t[nid] += d - child[i]
            p = parents[i]
            if p < 0 or names[p] != nid:
                incl[nid] += d

        def by_name(vals):
            return dict(zip(self.names, vals))

        return by_name(self.calls), by_name(incl), by_name(self_t), n

    def metrics(self) -> dict[str, float]:
        calls, incl, self_t, nspans = self._aggregate()

        def total(table, pred):
            return sum(v for name, v in table.items() if pred(name))

        def group_outer(prefix: str) -> float:
            # spans of a group whose parent is outside the group
            nids = {j for j, name in enumerate(self.names) if name.startswith(prefix)}
            names, parents = self.span_name, self.span_parent
            starts, ends = self.span_start, self.span_end
            out = 0.0
            for i in range(len(names)):
                if names[i] in nids:
                    p = parents[i]
                    if p < 0 or names[p] not in nids:
                        out += ends[i] - starts[i]
            return out

        c = self.counts
        enum_calls = sum(calls[e] for e in ENUMERATORS)
        enum_s = sum(incl[e] for e in ENUMERATORS)
        puzzles = c["search.enumerate_puzzles.yielded"]
        distinct_puzzle_triples = sum(1 for k in self.enumerated if k[0] == "search.enumerate_puzzles")
        steps = c["mutation.propagation_steps"]
        prop_s = incl["mutation.propagate_full"]
        m = {
            "search.enumerate_calls": enum_calls,
            "search.distinct_triples": len(self.enumerated),
            "search.distinct_ratio": len(self.enumerated) / enum_calls if enum_calls else 0.0,
            "search.puzzles": puzzles,
            "search.puzzles_per_s": puzzles / enum_s if enum_s else 0.0,
            "search.self_s": total(self_t, lambda s: s.startswith("search.")),
            "search.nonzero_ratio": (
                len(self.nonzero) / distinct_puzzle_triples if distinct_puzzle_triples else 0.0
            ),
            "labels.up_triangles_calls": calls["labels.PieceTables.up_triangles"],
            "labels.up_triangles_s": incl["labels.PieceTables.up_triangles"],
            "board.validate_calls": calls["board.Puzzle.validate"],
            "board.validate_s": incl["board.Puzzle.validate"],
            "board.weight_calls": calls["board.Puzzle.weight"],
            "board.weight_s": incl["board.Puzzle.weight"],
            "algebra.ypoly_ops": total(calls, lambda s: s.startswith("algebra.YPoly.")),
            "algebra.ypoly_s": group_outer("algebra.YPoly."),
            "algebra.exact_divide_calls": calls["algebra.exact_divide"],
            "algebra.exact_divide_s": incl["algebra.exact_divide"],
            "algebra.tower_ops": total(calls, lambda s: s.startswith("algebra.Tower.")),
            "algebra.tower_s": group_outer("algebra.Tower."),
            "strings.oracle_calls": calls["strings.oracle_constant"],
            "strings.oracle_self_s": self_t["strings.oracle_constant"],
            "strings.gw_calls": calls["strings.gw_invariant"],
            "strings.quantum_self_s": total(self_t, lambda s: s in QUANTUM),
            "mutation.flawed": c["mutation.enumerate_flawed.yielded"],
            "mutation.enumerate_flawed_s": incl["mutation.enumerate_flawed"],
            "mutation.resolutions": c["mutation.resolutions"],
            "mutation.phi_calls": calls["mutation.phi"],
            "mutation.phi_s": incl["mutation.phi"],
            "mutation.propagation_steps": steps,
            "mutation.steps_per_s": steps / prop_s if prop_s else 0.0,
            "mutation.recognize_s": incl["mutation.recognize_flaw"],
            "mutation.components": calls["mutation.mutation_component"],
            "mutation.component_nodes": sum(k * v for k, v in self.component_sizes.items()),
            "mutation.component_s": incl["mutation.mutation_component"],
        }
        for k in COMPONENT_SIZES:
            m[f"mutation.component_size.{k}"] = self.component_sizes[k]
        m["mutation.component_size.large"] = sum(
            v for k, v in self.component_sizes.items() if k > COMPONENT_SIZES[-1]
        )
        m["aura.checks"] = sum(calls[name] for name in self.names if name.startswith("aura.check_"))
        m["aura.failures"] = c["aura.failures"]
        for kind, name in AURA_CHECKS.items():
            m[f"aura.check_s.{kind}"] = incl[name]
        m["trace.spans"] = nspans
        return m


# -- counters taken from a call's arguments or result -------------------------


def _after_enumerate(name: str):
    def after(tr: Tracer, args, _out) -> None:
        tr.enumerated.add((name, tuple(args[:3])))

    return after


def _after_resolutions(tr: Tracer, _args, out) -> None:
    tr.counts["mutation.resolutions"] += len(out)


def _after_propagate(tr: Tracer, _args, out) -> None:
    tr.counts["mutation.propagation_steps"] += len(out[2]) - 1


def _after_component(tr: Tracer, _args, out) -> None:
    tr.component_sizes[len(out)] += 1


def _after_check(tr: Tracer, _args, out) -> None:
    if not out["pass"]:
        tr.counts["aura.failures"] += 1


_AFTER = {
    "search.enumerate_puzzles": _after_enumerate("search.enumerate_puzzles"),
    "search.enumerate_one_special": _after_enumerate("search.enumerate_one_special"),
    "mutation.FlawedPuzzle.resolutions": _after_resolutions,
    "mutation.propagate_full": _after_propagate,
    "mutation.mutation_component": _after_component,
}
