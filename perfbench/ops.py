"""Workload definitions: the op pools, seeded op lists, and the ops.

Every op is the public library call that one ``twostep`` subcommand
makes.  After the timed region the worker turns each op's output into
a canonical text and compares its hash with the digest stored in
``pools.json``, which ``make_pools.py`` produced once from the
independent path (the recursion oracle, or every pass flag of the
sweep).

The library modules are looked up as module attributes at call time,
so the tracer's wrappers (``tracer.py``) see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from twostep import algebra, aura, mutation, search, strings

HERE = os.path.dirname(os.path.abspath(__file__))
POOLS_PATH = os.path.join(HERE, "pools.json")

# Strata per pool.  A pool is sorted by the cost each op had when the
# pools were made and cut into this many strata of equal size; a seed
# draws one op from each, so every seed gets the same mix of cheap and
# dear ops.  The small n = 7 and quantum pools are taken whole: a few
# ops of uneven cost would otherwise swing the total between seeds.
PRODUCT_N6_STRATA = 24
CROSSCHECK_STRATA = {5: 80, 6: 45}
SWEEP_STRATA = 200


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_pools() -> dict:
    with open(POOLS_PATH, encoding="utf-8") as f:
        return json.load(f)


def _stratified(pool: list[dict], k: int, rng: random.Random) -> list[dict]:
    order = sorted(pool, key=lambda op: op["cost_s"])
    return [
        order[rng.randrange(s * len(order) // k, (s + 1) * len(order) // k)]
        for s in range(k)
    ]


def op_list(workload: str, seed: int, pools: dict) -> list[dict]:
    """The fixed op list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "product":
        p = pools["product"]
        ops = _stratified(p["n6"], PRODUCT_N6_STRATA, rng) + p["n7"] + p["quantum"]
    elif workload == "crosscheck":
        ops = []
        for n, k in CROSSCHECK_STRATA.items():
            pool = [op for op in pools["crosscheck"] if op["content"].endswith(f",{n}")]
            ops += _stratified(pool, k, rng)
    elif workload == "sweep":
        ops = _stratified(pools["sweep"], SWEEP_STRATA, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Canonical outputs


def expansion_text(exp: dict) -> str:
    return "\n".join(
        sorted(f"{strings.fmt(w)}: {algebra.format_poly(c)}" for w, c in exp.items())
    )


def quantum_text(terms: dict) -> str:
    return "\n".join(
        f"q^{d} {list(nu)}: {algebra.format_poly(c)}"
        for (d, nu), c in sorted(terms.items())
    )


def sweep_text(flawed: int, puzzles: int, ok: bool) -> str:
    return f"flawed={flawed} puzzles={puzzles} pass={ok}"


# ---------------------------------------------------------------------------
# Ops.  Each returns what is checked against the stored digest; nothing
# here is checked inside the timed region.

# the oracle's own cache, held before the tracer can wrap the function
_oracle = strings.oracle_constant


def before(op: dict) -> None:
    """Untimed preparation of one op.  A crosscheck op is an independent
    request: the oracle cache is emptied first, so an op's latency does
    not depend on which ops the seed put before it."""
    if op["kind"] == "crosscheck":
        _oracle.cache_clear()


def oracle_entries() -> int:
    return _oracle.cache_info().currsize


def run_op(op: dict, state: dict):
    kind = op["kind"]
    if kind == "product":
        return search.product_expansion(strings.parse(op["u"]), strings.parse(op["v"]))
    if kind == "quantum":
        return strings.quantum_product(
            tuple(op["lam"]), tuple(op["mu"]), op["m"], op["n"]
        )
    if kind == "crosscheck":
        u, v, w = (strings.parse(op[k]) for k in ("u", "v", "w"))
        return search.structure_constant(u, v, w), strings.oracle_constant(u, v, w)
    if kind == "sweep":
        u, v, w = (strings.parse(op[k]) for k in ("u", "v", "w"))
        return sweep_triple(u, v, w, state.setdefault("seen", set()))
    raise ValueError(f"unknown op kind {kind!r}")


def output_ok(op: dict, out) -> bool:
    kind = op["kind"]
    if kind == "product":
        return digest(expansion_text(out)) == op["digest"]
    if kind == "quantum":
        return digest(quantum_text(out)) == op["digest"]
    if kind == "crosscheck":
        return all(digest(algebra.format_poly(c)) == op["digest"] for c in out)
    return digest(sweep_text(*out)) == op["digest"]


def sweep_triple(u, v, w, seen: set) -> tuple[int, int, bool]:
    """The per-triple body of ``verify --suite mutation`` followed by that
    of ``verify --suite aura``; mutation components already met in this
    process are skipped, as the aura suite skips them."""
    ok = True
    flawed = list(mutation.enumerate_flawed(u, v, w))
    for P in flawed:
        for R in P.resolutions():
            G = mutation.phi(R)
            Q = mutation.recognize_flaw(G)
            if Q.boundary() != P.boundary() or Q.validate():
                ok = False
                continue
            if mutation.recognize_flaw(mutation.phi(G)) != P:
                ok = False
    puzzles = list(search.enumerate_puzzles(u, v, w))
    for P in puzzles:
        for r in (aura.check_boundary_aura(P), aura.check_scab_sum(P)):
            ok = ok and r["pass"]
    for r in (aura.check_two_sums(u, v, w), aura.check_recursion(u, v, w)):
        ok = ok and r["pass"]
    for P in mutation.enumerate_flawed(u, v, w):
        if P in seen:
            continue
        comp = mutation.mutation_component(P)
        seen.update(comp)
        ok = ok and aura.check_mutation_closed_sum(comp)["pass"]
    return len(flawed), len(puzzles), ok
