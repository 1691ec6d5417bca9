"""Make ``pools.json``: every op a seed can draw, with its expected output.

Run once from the repository root: ``python3 perfbench/make_pools.py``
(about ten minutes on one core; most of it is the oracle).

Expected outputs come from the independent path: the recursion oracle
for products, ``quantum_product(..., constant_fn=oracle_constant)`` for
quantum products, ``oracle_constant`` for crosscheck triples, and the
flawed-puzzle count plus every pass flag for sweep triples.  Where the
puzzle path disagrees with the oracle the script stops, since the pools
must not encode a wrong value.  ``cost_s`` is the least of REPEATS
timings of the op here; it only orders a pool into strata
(``ops.op_list``).

Pool rules (random draws from a fixed pool seed):
- product: 24 pairs per two-step content (a < b) at n = 6; the first
  N7_POOL pairs at n = 7 whose product finishes within N7_LIMIT_S and
  whose oracle expansion within ORACLE_LIMIT_S, since one op must fit
  in a pass; one pair per Grassmannian in QUANTUM_GRASSMANNIANS.
- crosscheck: CROSSCHECK_TRIPLES triples per content at n = 5 and 6,
  timed with an empty oracle cache.  Few at n = 6, where one cold oracle
  call can take seconds.
- sweep: 40 triples per content at n = 4 and 5.
Crosscheck and sweep contents are those of ``twostep verify``:
1 <= a <= b < n.
"""

from __future__ import annotations

import json
import os
import random
import signal
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import ops  # noqa: E402
from twostep import algebra, search, strings  # noqa: E402

REPEATS = 3
N7_LIMIT_S = 3.0
ORACLE_LIMIT_S = 60.0
N7_POOL = 2
CROSSCHECK_TRIPLES = {5: 24, 6: 6}
QUANTUM_GRASSMANNIANS = ((2, 5), (3, 6), (3, 7))


class _Timeout(Exception):
    pass


def _alarm(_sig, _frame):
    raise _Timeout


def _within(seconds: float, fn, *args):
    """``fn(*args)`` or None when it takes longer than ``seconds``."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    except _Timeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def contents(n: int, two_step: bool = False) -> list[tuple[int, int, int]]:
    return [
        (a, b, n) for b in range(1, n) for a in range(1, b + 1) if a < b or not two_step
    ]


def oracle_expansion(u, v) -> dict:
    a, b, n = strings.content(u)
    deg = strings.length(u) + strings.length(v)
    out = {}
    for w in strings.all_strings(a, b, n):
        if strings.length(w) <= deg:
            c = strings.oracle_constant(u, v, w)
            if c:
                out[w] = c
    return out


def timed(fn):
    """``fn()`` and its least time over REPEATS calls (noise only adds)."""
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t)
    return out, best


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"puzzle path disagrees with the independent path: {what}")


def product_pairs(rng: random.Random, content, count: int):
    ss = strings.all_strings(*content)
    return [(rng.choice(ss), rng.choice(ss)) for _ in range(count)]


def make_product_n6(rng: random.Random) -> list[dict]:
    pool = []
    for content in contents(6, two_step=True):
        strings.oracle_constant.cache_clear()
        for u, v in product_pairs(rng, content, 24):
            exp, cost = timed(lambda: search.product_expansion(u, v))
            text = ops.expansion_text(exp)
            check(text == ops.expansion_text(oracle_expansion(u, v)), f"{u} {v}")
            pool.append(_product_op(u, v, text, cost))
    return pool


def make_product_n7(rng: random.Random) -> list[dict]:
    pool = []
    cands = [(c, p) for c in contents(7, two_step=True) for p in product_pairs(rng, c, 3)]
    rng.shuffle(cands)
    for _content, (u, v) in cands:
        if len(pool) == N7_POOL:
            break
        t = time.perf_counter()
        exp = _within(N7_LIMIT_S, search.product_expansion, u, v)
        cost = time.perf_counter() - t
        if exp is None:
            continue
        strings.oracle_constant.cache_clear()
        want = _within(ORACLE_LIMIT_S, oracle_expansion, u, v)
        strings.oracle_constant.cache_clear()
        if want is None:
            continue
        text = ops.expansion_text(exp)
        check(text == ops.expansion_text(want), f"{u} {v}")
        pool.append(_product_op(u, v, text, cost))
    return pool


def _product_op(u, v, text: str, cost: float) -> dict:
    return {
        "kind": "product",
        "u": strings.fmt(u),
        "v": strings.fmt(v),
        "digest": ops.digest(text),
        "cost_s": round(cost, 4),
    }


def make_quantum(rng: random.Random) -> list[dict]:
    pool = []
    for m, n in QUANTUM_GRASSMANNIANS:
        parts = strings.all_partitions(m, n)
        lam, mu = rng.choice(parts), rng.choice(parts)
        strings.oracle_constant.cache_clear()
        terms, cost = timed(lambda: strings.quantum_product(lam, mu, m, n))
        want = strings.quantum_product(lam, mu, m, n, constant_fn=strings.oracle_constant)
        text = ops.quantum_text(terms)
        check(text == ops.quantum_text(want), f"Gr({m},{n}) {lam} {mu}")
        pool.append(
            {
                "kind": "quantum",
                "m": m,
                "n": n,
                "lam": list(lam),
                "mu": list(mu),
                "digest": ops.digest(text),
                "cost_s": round(cost, 4),
            }
        )
    return pool


def random_triples(rng: random.Random, content, count: int):
    ss = strings.all_strings(*content)
    return [tuple(rng.choice(ss) for _ in range(3)) for _ in range(count)]


def cold_crosscheck(u, v, w):
    strings.oracle_constant.cache_clear()
    return search.structure_constant(u, v, w), strings.oracle_constant(u, v, w)


def make_crosscheck(rng: random.Random) -> list[dict]:
    pool = []
    for n, count in CROSSCHECK_TRIPLES.items():
        for content in contents(n):
            for u, v, w in random_triples(rng, content, count):
                (c, want), cost = timed(lambda: cold_crosscheck(u, v, w))
                text = algebra.format_poly(want)
                check(algebra.format_poly(c) == text, f"{u} {v} {w}")
                pool.append(
                    {
                        "kind": "crosscheck",
                        "content": ",".join(map(str, content)),
                        "u": strings.fmt(u),
                        "v": strings.fmt(v),
                        "w": strings.fmt(w),
                        "digest": ops.digest(text),
                        "cost_s": round(cost, 5),
                    }
                )
    strings.oracle_constant.cache_clear()
    return pool


def make_sweep(rng: random.Random) -> list[dict]:
    pool = []
    for n in (4, 5):
        for content in contents(n):
            for u, v, w in random_triples(rng, content, 40):
                (flawed, puzzles, ok), cost = timed(lambda: ops.sweep_triple(u, v, w, set()))
                check(ok, f"sweep {u} {v} {w}")
                pool.append(
                    {
                        "kind": "sweep",
                        "u": strings.fmt(u),
                        "v": strings.fmt(v),
                        "w": strings.fmt(w),
                        "flawed": flawed,
                        "digest": ops.digest(ops.sweep_text(flawed, puzzles, ok)),
                        "cost_s": round(cost, 5),
                    }
                )
    return pool


SECTIONS = {
    "product.n6": make_product_n6,
    "product.n7": make_product_n7,
    "product.quantum": make_quantum,
    "crosscheck": make_crosscheck,
    "sweep": make_sweep,
}


def make(section: str) -> list[dict]:
    return SECTIONS[section](random.Random(f"twostep-pools:{section}"))


def main() -> None:
    made = {section: make(section) for section in SECTIONS}
    pools = {
        "product": {
            "n6": made["product.n6"],
            "n7": made["product.n7"],
            "quantum": made["product.quantum"],
        },
        "crosscheck": made["crosscheck"],
        "sweep": made["sweep"],
    }
    with open(ops.POOLS_PATH, "w", encoding="utf-8") as f:
        json.dump(pools, f, indent=0, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
