"""One pass of one workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py pass WORKLOAD SEED TRACE
    python3 perfbench/worker.py selftest

``run.py`` starts these; they are not meant to be run by hand.  The
``src`` directory of the checkout is put first on the import path.
"""

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


# counts that must repeat exactly for one op list
EXACT_COUNTS = (
    "search.puzzles",
    "mutation.flawed",
    "mutation.propagation_steps",
    "strings.oracle_misses",
)


def setup() -> float:
    """Import ``twostep`` and build every table a CLI call builds."""
    t = time.perf_counter()
    from twostep import aura, labels, mutation

    labels.tables()
    mutation.immediate_moves()
    for g in mutation.all_directed_gashes():
        mutation.gash_class(g)
    mutation.temporary_table()
    mutation.down_temporary_table()
    mutation.scab_table()
    mutation.forward_gashes()
    mutation.backward_gashes()
    aura.aura_table()
    return time.perf_counter() - t


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    setup_s = setup()
    import ops

    op_list = ops.op_list(workload, seed, ops.load_pools())
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state: dict = {}
    outputs, latencies = [], []
    # the oracle cache never evicts, so its growth over an op is the
    # op's cache misses
    misses = peak_entries = 0
    clock = time.perf_counter
    start = clock()
    for op in op_list:
        ops.before(op)
        entries = ops.oracle_entries()
        t = clock()
        outputs.append(ops.run_op(op, state))
        latencies.append(clock() - t)
        size = ops.oracle_entries()
        misses += size - entries
        peak_entries = max(peak_entries, size)
    wall = clock() - start
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "latencies": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        layers["strings.oracle_misses"] = misses
        layers["strings.oracle_cache_entries"] = peak_entries
        result["layers"] = layers
        result["exact"] = {key: layers[key] for key in EXACT_COUNTS}
        result["exact"]["component_sizes"] = sorted(tracer.component_sizes.items())
    # the output check runs after the timed region
    result["failed"] = [i for i, (op, out) in enumerate(zip(op_list, outputs)) if not ops.output_ok(op, out)]
    return result


def selftest() -> dict:
    """Counts of the traced wrappers over the full n <= 4 sweep."""
    setup()
    from tracer import Tracer
    from twostep import mutation, search, strings

    triples = []
    for n in range(2, 5):
        for b in range(1, n):
            for a in range(1, b + 1):
                ss = strings.all_strings(a, b, n)
                triples.append([(u, v, w) for u in ss for v in ss for w in ss])
    out = {}
    tracer = Tracer()
    tracer.install()
    for content in triples:
        for u, v, w in content:
            for _ in search.enumerate_puzzles(u, v, w):
                pass
    out["puzzles"] = tracer.metrics()["search.puzzles"]
    tracer.uninstall()

    tracer = Tracer()
    tracer.install()
    for content in triples:
        seen = set()
        for u, v, w in content:
            for P in mutation.enumerate_flawed(u, v, w):
                if P not in seen:
                    seen.update(mutation.mutation_component(P))
    m = tracer.metrics()
    tracer.uninstall()
    out["flawed"] = m["mutation.flawed"]
    out["enumerate_calls"] = m["search.enumerate_calls"]
    out["distinct_triples"] = m["search.distinct_triples"]
    out["components"] = m["mutation.components"]
    out["component_sizes"] = {str(k): v for k, v in sorted(tracer.component_sizes.items())}
    return out


def main() -> None:
    mode = sys.argv[1]
    if mode == "setup":
        result = {"setup_s": setup()}
    elif mode == "pass":
        result = run_pass(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
    elif mode == "selftest":
        result = selftest()
    else:
        sys.exit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
