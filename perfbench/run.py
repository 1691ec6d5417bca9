"""The twostep benchmark.

    python3 perfbench/run.py --workload product --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Each pass runs the workload's op list, fixed by ``--seed``, once in a
fresh interpreter (``worker.py``), one op after another: a closed loop
with one caller and no threads.  Passes repeat until ``--seconds`` is
used up (at least MIN_PASSES).  Every op's output is checked against
``pools.json`` after the timed region.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics, failing when the exact counts differ between traced
passes.  ``--selftest`` checks the traced counters against the counts
known for the full n <= 4 sweep.  The last line of the output is one
JSON object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

MIN_PASSES = 3
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

SELFTEST_EXPECTED = {
    "puzzles": 1213,
    "flawed": 9606,
    "enumerate_calls": 39020,
    "distinct_triples": 11612,
    "components": 3429,
    "component_sizes": {"2": 2286, "4": 954, "6": 154, "8": 28, "10": 7},
}


def child(*args: str) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and wall time."""
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"worker {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), time.perf_counter() - t


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples above
    it, and that percentile."""
    s = sorted(values)
    j = max(len(s) - 11, 0)
    return s[j], 100.0 * (j + 1) / len(s)


def run_passes(workload: str, seed: int, deadline: float, trace: bool):
    """Untraced and (with ``trace``) alternating traced passes, until
    the next pass would end after ``deadline``."""
    untraced, traced = [], []
    plan = ["0", "1", "1"] if trace else ["0"] * MIN_PASSES
    mode, longest = "1", 0.0
    while True:
        mode = plan.pop(0) if plan else ("1" if trace and mode == "0" else "0")
        result, took = child("pass", workload, str(seed), mode)
        (traced if mode == "1" else untraced).append(result)
        longest = max(longest, took)
        if not plan and time.perf_counter() + longest > deadline:
            return untraced, traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    deadline = time.perf_counter() + args.seconds
    if not os.path.isfile(os.path.join(ROOT, "src", "twostep", "__init__.py")):
        print(f"no twostep sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    if args.selftest:
        got, _ = child("selftest")
        ok = got == SELFTEST_EXPECTED
        for key, want in SELFTEST_EXPECTED.items():
            print(f"{key:18} {json.dumps(got.get(key))}  expected {json.dumps(want)}")
        print(json.dumps({"selftest": "pass" if ok else "fail", "counts": got}))
        return 0 if ok else 1

    if args.workload not in [w["name"] for w in spec["workloads"]]:
        ap.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")

    setups = [child("setup")[0]["setup_s"] for _ in range(SETUP_SAMPLES + 1)][1:]
    untraced, traced = run_passes(args.workload, args.seed, deadline, bool(args.trace))
    passes = untraced + traced
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    correct = failed == 0
    walls = [p["wall_s"] for p in untraced]
    print(f"workload {args.workload}  seed {args.seed}  untraced passes {len(untraced)}"
          f"  traced passes {len(traced)}  ops per pass {len(passes[0]['latencies'])}")
    print(f"fail_frac     {failed / attempted:.4g}  ({failed} of {attempted} ops failed their output check)")

    if args.trace:
        layers = {
            key: statistics.median(p["layers"][key] for p in traced) for key in traced[0]["layers"]
        }
        layers["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced) / statistics.median(walls)
        )
        exact = [p["exact"] for p in traced]
        deterministic = all(e == exact[0] for e in exact)
        correct = correct and deterministic
        print(f"exact counts {'repeat' if deterministic else 'DIFFER'} across traced passes: {json.dumps(exact[0])}")
        print(f"spans per traced pass: {layers['trace.spans']:.0f}")
        names = spec["per_layer"]
        values = layers
    else:
        per_op = [statistics.median(lat) for lat in zip(*(p["latencies"] for p in untraced))]
        tail_s, tail_pct = tail(per_op)
        values = {
            "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1000 * statistics.median(per_op),
            "op_tail_ms": 1000 * tail_s,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
        names = spec["end_to_end"]
        print(f"op_tail_ms is the p{tail_pct:.1f} latency of {len(per_op)} ops,"
              f" each op the median of {len(untraced)} passes")
        print(f"setup_s is the median of {len(setups) + len(passes)} fresh interpreters")

    metrics = {}
    for m in names:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:32} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
