"""Command-line interface.

Subcommands:

- ``product``: expand a product of two Schubert classes into structure
  constants, one ``w: polynomial`` line per term.
- ``puzzles``: enumerate the puzzles for one boundary triple, printing
  the count and weights, optionally rendering each puzzle.
- ``mutate``: load a puzzle from JSON, inject a flaw, and either apply
  mutation steps or dump the whole mutation-graph component.
- ``quantum``: a quantum Littlewood-Richardson product on a
  Grassmannian, printed as ``q^d [nu]: polynomial`` lines.
- ``verify``: run an invariant sweep (pieces, gashes, mutation, aura,
  or oracle) up to a size bound and print a JSON summary.

Exit codes: 0 success, 1 verification failure (a suite that raises
fails with a report naming the exception), 2 input error, 3 semantic
mismatch (e.g. a flaw spec that does not fit the puzzle).
All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Sequence

from .algebra import NVARS, Tower, format_poly
from .board import puzzle_from_json, render_svg, render_text
from .labels import load_tables, tables
from .strings import (
    String012,
    all_strings,
    content,
    contents_up_to,
    fmt,
    oracle_constant,
    parse,
)

__all__ = ["main"]


class InputError(Exception):
    """Malformed command-line input (exit code 2)."""


class SemanticError(Exception):
    """Well-formed input that does not fit the data (exit code 3)."""


def _parse_string(text: str) -> String012:
    if not text:
        raise InputError("empty 012-string")
    try:
        s = parse(text)
    except (ValueError, TypeError) as e:
        raise InputError(str(e))
    if len(s) > NVARS:
        raise InputError(f"012-string of length {len(s)}: the variables are y1 .. y{NVARS}")
    return s


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_product(args) -> int:
    from .search import product_expansion

    u, v = _parse_string(args.u), _parse_string(args.v)
    if content(u) != content(v):
        raise InputError("u and v have different contents")
    flags = zip(("--a", "--b", "--n"), (args.a, args.b, args.n), content(u))
    wrong = " ".join(f"{f} {g}" for f, g, have in flags if g not in (None, have))
    if wrong:
        raise InputError(f"strings have content (a, b, n) = {content(u)}, not {wrong}")
    exp = product_expansion(u, v)
    items = sorted((fmt(w), format_poly(c)) for w, c in exp.items())
    if args.format == "json":
        print(json.dumps(dict(items)))
    else:
        for w, c in items:
            print(f"{w}: {c}")
    return 0


def _cmd_puzzles(args) -> int:
    from .search import enumerate_puzzles

    u, v, w = (_parse_string(s) for s in (args.u, args.v, args.w))
    if not (content(u) == content(v) == content(w)):
        raise InputError("u, v, w have different contents")
    puzzles = list(enumerate_puzzles(u, v, w))
    if args.out is not None:
        try:
            os.makedirs(args.out, exist_ok=True)
            for i, P in enumerate(puzzles):
                if args.render == "svg":
                    path = os.path.join(args.out, f"puzzle_{i:03d}.svg")
                    data = render_svg(P)
                else:
                    path = os.path.join(args.out, f"puzzle_{i:03d}.txt")
                    data = render_text(P) + "\n"
                with open(path, "w", encoding="utf-8") as f:
                    f.write(data)
        except OSError as e:
            raise InputError(f"cannot write to --out {args.out!r}: {e}")
    print(f"count: {len(puzzles)}")
    for i, P in enumerate(puzzles):
        print(f"puzzle {i}: weight {format_poly(P.weight())}")
        if args.render == "text" and args.out is None:
            print(render_text(P))
    if args.out is not None:
        print(f"wrote {len(puzzles)} file(s) to {args.out}")
    return 0


def _parse_flaw(spec: str):
    kind, _, rest = spec.partition(":")
    parts = rest.split(",") if rest else []
    try:
        if kind == "scab" and len(parts) == 2:
            return ("scab", (int(parts[0]), int(parts[1])))
        if kind == "temporary" and len(parts) == 3 and parts[0] in ("U", "D"):
            return ("temporary", (parts[0], int(parts[1]), int(parts[2])))
        if kind == "gashpair" and len(parts) == 5 and parts[0] in ("u", "v", "w"):
            i, li, j, lj = (int(p) for p in parts[1:])
            positions = tuple(sorted(((i, li), (j, lj))))
            return ("gashpair", (parts[0], positions))
    except ValueError as e:
        raise InputError(f"bad flaw spec {spec!r}: {e}")
    raise InputError(
        f"bad flaw spec {spec!r}; use scab:X,Y or temporary:U|D,X,Y "
        "or gashpair:u|v|w,I,OUTER_I,J,OUTER_J"
    )


def _cmd_mutate(args) -> int:
    from .mutation import (
        FlawedPuzzle,
        component_to_dot,
        component_to_json,
        flawed_to_json,
        mutate,
        mutation_component,
    )

    if args.steps < 0:
        raise InputError(f"--steps must be at least 0, not {args.steps}")
    try:
        choices = [int(c) for c in args.choices.split(",")] if args.choices else []
    except ValueError as e:
        raise InputError(f"bad --choices {args.choices!r}: {e}")
    if any(c < 0 for c in choices):
        raise InputError(f"--choices must be at least 0: {args.choices!r}")
    try:
        with open(args.puzzle, encoding="utf-8") as f:
            base = puzzle_from_json(f.read())
    except OSError as e:
        raise InputError(str(e))
    except (ValueError, KeyError, TypeError) as e:
        raise InputError(f"bad puzzle JSON: {e}")
    P = FlawedPuzzle(base, _parse_flaw(args.flaw))
    problems = P.validate()
    if problems:
        if len(problems) > 20:  # a mostly unlabeled region has thousands
            problems[20:] = [f"… and {len(problems) - 20} more"]
        raise SemanticError("; ".join(problems))
    if args.component:
        graph = mutation_component(P)
        print(component_to_dot(graph) if args.format == "dot" else component_to_json(graph))
        return 0
    for k in range(args.steps):
        choice = choices[k] if k < len(choices) else 0
        try:
            P = mutate(P, choice)
        except ValueError as e:
            raise SemanticError(f"step {k + 1}: {e}")
        print(flawed_to_json(P))
    return 0


def _parse_partition(text: str, m: int, n: int) -> tuple[int, ...]:
    if text in ("", "0"):
        return ()
    try:
        lam = tuple(int(p) for p in text.split(","))
    except ValueError as e:
        raise InputError(f"bad partition {text!r}: {e}")
    if any(p < 0 for p in lam) or any(
        lam[i] < lam[i + 1] for i in range(len(lam) - 1)
    ):
        raise InputError(f"{text!r} is not a partition")
    lam = tuple(p for p in lam if p)
    if len(lam) > m or any(p > n - m for p in lam):
        raise InputError(f"partition {text!r} does not fit in a {m} x {n - m} box")
    return lam


def _cmd_quantum(args) -> int:
    from .strings import quantum_product

    m, n = args.m, args.n
    if not 0 < m < n:
        raise InputError("need 0 < m < n")
    if n > NVARS:
        raise InputError(f"--n {n}: the variables are y1 .. y{NVARS}")
    lam = _parse_partition(args.lam, m, n)
    mu = _parse_partition(args.mu, m, n)
    terms = quantum_product(lam, mu, m, n)
    for (d, nu), c in sorted(terms.items()):
        nu_text = ",".join(str(p) for p in nu) or "0"
        print(f"q^{d} [{nu_text}]: {format_poly(c)}")
    return 0


# ---------------------------------------------------------------------------
# Verification suites


def _suite_pieces(max_n: int) -> list[dict]:
    from .labels import validate_tables

    problems = validate_tables()
    # every aura identity computes in Z[zeta]: check the powers of zeta,
    # by repeated products, against integer constants
    one = Tower.const(1)
    powers = [one]
    for _ in range(23):
        powers.append(powers[-1] * Tower.zeta(1))
    checks = [("z^6", powers[6], Tower.const(-1)), ("z^4", powers[4], powers[2] - one)]
    checks += [(f"Tower.zeta({k})", Tower.zeta(k), powers[k]) for k in range(24)]
    checks += [(f"z^{k} * z^{12 - k}", powers[k] * powers[12 - k], one) for k in range(13)]
    wrong = [f"{name} = {lhs}, not {rhs}" for name, lhs, rhs in checks if lhs != rhs]
    return [
        {
            "check": "piece tables",
            "instance": "triangles and rhombi",
            "pass": not problems,
            "lhs": "validation problems",
            "rhs": "; ".join(problems) or "none",
        },
        {
            "check": "zeta arithmetic",
            "instance": "zeta^0 .. zeta^23 as products of Tower.zeta(1)",
            "pass": not wrong,
            "lhs": "z^6 = -1, z^4 = z^2 - 1, Tower.zeta(k) = z^k, z^k * z^(12-k) = 1",
            "rhs": "; ".join(wrong) or "none",
        },
    ]


def _suite_gashes(max_n: int) -> list[dict]:
    from .aura import check_gash_classes
    from .mutation import all_directed_gashes, gash_class

    sizes: dict[int, int] = {}
    seen = set()
    for g in all_directed_gashes():
        cls = gash_class(g)
        if cls not in seen:
            seen.add(cls)
            sizes[len(cls)] = sizes.get(len(cls), 0) + 1
    expected = {6: 24, 5: 12, 4: 12, 1: 84}
    return [
        {
            "check": "gash class partition",
            "instance": "all 336 directed gashes",
            "pass": sizes == expected,
            "lhs": json.dumps(sizes, sort_keys=True),
            "rhs": json.dumps(expected, sort_keys=True),
        },
        check_gash_classes(),
    ]


def _suite_oracle(max_n: int) -> list[dict]:
    from .search import structure_constant

    reports = []
    for a, b, n in contents_up_to(max_n):
        bad = []
        strings = all_strings(a, b, n)
        for u, v, w in itertools.product(strings, repeat=3):
            if structure_constant(u, v, w) != oracle_constant(u, v, w):
                bad.append((fmt(u), fmt(v), fmt(w)))
        reports.append(
            {
                "check": "oracle equivalence",
                "instance": f"Fl({a},{b};{n}), {len(strings) ** 3} triples",
                "pass": not bad,
                "lhs": "puzzle-rule constants",
                "rhs": f"oracle; mismatches: {bad}",
            }
        )
    return reports


def _suite_mutation(max_n: int) -> list[dict]:
    from .mutation import dual_flawed, enumerate_flawed, phi, recognize_flaw

    reports = []
    for a, b, n in contents_up_to(max_n):
        bad = []
        count = 0
        for u, v, w in itertools.product(all_strings(a, b, n), repeat=3):
            flawed = list(enumerate_flawed(u, v, w))
            listed = set(flawed)
            for P in flawed:
                count += 1
                D = dual_flawed(P)
                if D.validate() or dual_flawed(D) != P:
                    bad.append((fmt(u), fmt(v), fmt(w), "dual"))
                for R in P.resolutions():
                    G = phi(R)  # raises InvariantViolation on crossing paths
                    Q = recognize_flaw(G)
                    if Q.boundary() != P.boundary() or Q.validate():
                        bad.append((fmt(u), fmt(v), fmt(w), "flaw"))
                        continue
                    # phi fixes the boundary, so Q is one of its listed flaws
                    if Q not in listed:
                        bad.append((fmt(u), fmt(v), fmt(w), "unlisted"))
                    back = phi(G)
                    if back != R or recognize_flaw(back) != P:
                        bad.append((fmt(u), fmt(v), fmt(w), "involution"))
        reports.append(
            {
                "check": "mutation involution",
                "instance": f"Fl({a},{b};{n}), {count} flawed puzzles",
                "pass": not bad,
                "lhs": "phi(phi(R)) and recognized flaws",
                "rhs": f"originals; failures: {bad[:5]}",
            }
        )
    return reports


def _suite_aura(max_n: int) -> list[dict]:
    from .aura import (
        check_boundary_aura,
        check_cover_aura,
        check_gash_classes,
        check_mutation_closed_sum,
        check_recursion,
        check_scab_sum,
        check_scab_weight,
        check_temporary_sum,
        check_two_sums,
    )
    from .mutation import enumerate_flawed, mutation_component
    from .search import enumerate_puzzles

    # the identity each kind of flaw satisfies on its own
    flaw_checks = {
        "gashpair": check_cover_aura,
        "scab": check_scab_weight,
        "temporary": check_temporary_sum,
    }
    reports = [check_gash_classes()]
    for a, b, n in contents_up_to(max_n):
        bad = []
        seen = set()
        for u, v, w in itertools.product(all_strings(a, b, n), repeat=3):
            for P in enumerate_puzzles(u, v, w):
                for r in (check_boundary_aura(P), check_scab_sum(P)):
                    if not r["pass"]:
                        bad.append(r)
            flawed = list(enumerate_flawed(u, v, w))
            for r in (check_two_sums(u, v, w), check_recursion(u, v, w)):
                if not r["pass"]:
                    bad.append(r)
            for P in flawed:
                r = flaw_checks[P.flaw_type](P)
                if not r["pass"]:
                    bad.append(r)
                if P in seen:
                    continue
                comp = mutation_component(P)
                seen.update(comp)
                r = check_mutation_closed_sum(comp)
                if not r["pass"]:
                    bad.append(r)
        reports.append(
            {
                "check": "aura identities",
                "instance": f"Fl({a},{b};{n})",
                "pass": not bad,
                "lhs": "scab/boundary/mutation/recursion sums",
                "rhs": f"identities; failures: {bad[:3]}",
            }
        )
    return reports


_SUITES = {
    "pieces": _suite_pieces,
    "gashes": _suite_gashes,
    "mutation": _suite_mutation,
    "aura": _suite_aura,
    "oracle": _suite_oracle,
}


def _cmd_verify(args) -> int:
    if args.max_n < 2:
        raise InputError(f"--max-n must be at least 2, not {args.max_n}")
    try:
        reports = _SUITES[args.suite](args.max_n)
    except Exception as e:
        # a fault in library code fails the suite, never with a traceback
        reports = [
            {
                "check": f"suite {args.suite} runs to the end",
                "instance": f"--max-n {args.max_n}",
                "pass": False,
                "lhs": type(e).__name__,
                "rhs": str(e),
            }
        ]
    ok = all(r["pass"] for r in reports)
    print(json.dumps({"suite": args.suite, "pass": ok, "checks": reports}, indent=2))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostep",
        description="Equivariant Schubert structure constants of two-step "
        "flag varieties via puzzles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="expand a product of two Schubert classes")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("puzzles", help="enumerate puzzles for a boundary triple")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--render", choices=("text", "svg"), default="text")
    p.add_argument("--out", help="directory to write rendered puzzles to")
    p.set_defaults(func=_cmd_puzzles)

    p = sub.add_parser("mutate", help="inject a flaw and mutate")
    p.add_argument("--puzzle", required=True, help="puzzle JSON file")
    p.add_argument(
        "--flaw",
        required=True,
        help="scab:X,Y | temporary:U|D,X,Y | gashpair:u|v|w,I,OUTER_I,J,OUTER_J",
    )
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--choices", help="comma-separated resolution choices per step")
    p.add_argument("--component", action="store_true", help="dump the whole component")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("quantum", help="quantum product on a Grassmannian")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, help='e.g. "2,1" ("" = empty)')
    p.add_argument("--mu", required=True)
    p.set_defaults(func=_cmd_quantum)

    p = sub.add_parser("verify", help="run an invariant sweep")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            load_tables()
        except (OSError, ValueError) as e:
            raise InputError(f"cannot read piece tables: {e}")
        # `verify --suite pieces` reports invalid tables itself
        if (args.command, getattr(args, "suite", None)) != ("verify", "pieces"):
            try:
                tables()
            except ValueError as e:
                raise InputError(str(e))
        return args.func(args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except SemanticError as e:
        print(f"semantic error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
