"""Command-line front end.

Subcommands: gen, solve, transversal, verify, sweep. Batch-oriented:
reads instance files, prints certificates or CSV reports, communicates
failure through exit codes:

  0  success
  1  I/O or parse failure
  2  precondition or parameter failure
  3  internal invariant or certificate revalidation failure
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

from . import generators
from .errors import (
    BadShape,
    BudgetExceeded,
    DuplicateEdge,
    ImproperColoring,
    InfeasibleParameters,
    InternalInvariantBroken,
    NotLatin,
    PreconditionViolated,
    SelfLoop,
)
from .delta import find_rainbow_matching_delta
from .graphs import format_graph, min_degree, parse_graph, validate_rainbow_matching
from .latin import (
    cycles_of,
    parse_latin,
    serialize_latin,
    to_bipartite_factorization,
    validate_transversal,
)
from .layered import find_rainbow_matching_layered, guaranteed_size
from .oracle import max_rainbow_matching_exact
from .transversal import (
    build_short_cycle_free_transversal,
    corollary_bound,
    cycle_free_transversal,
    default_cycle_bound,
    theorem_bound,
)

_IO_ERRORS = (OSError, BadShape, NotLatin, SelfLoop, DuplicateEdge, ImproperColoring)
_PRECONDITION_ERRORS = (PreconditionViolated, InfeasibleParameters, BudgetExceeded)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


# ---------------------------------------------------------------- gen


def _cmd_gen(args) -> int:
    if args.kind == "graph":
        g = generators.random_proper_graph(args.n, args.target, args.seed)
        _write_text(args.out, format_graph(g))
        return 0
    if args.kind == "square":
        sq = generators.random_square(args.n, seed=args.seed)
    elif args.kind == "cyclic":
        sq = generators.cyclic_square(args.n)
    elif args.kind == "witness":
        sq = generators.witness_square_4()
    else:  # k4pair
        g = generators.k4_factorization_pair()
        _write_text(args.out, format_graph(g))
        return 0
    _write_text(args.out, serialize_latin(sq))
    return 0


# ---------------------------------------------------------------- solve


def _solve_edges_text(header_lines: list, edges) -> str:
    lines = [f"# {line}" for line in header_lines]
    lines.extend(f"edge {u} {v} {c}" for u, v, c in edges)
    return "\n".join(lines) + "\n"


def _cmd_solve(args) -> int:
    g = parse_graph(_read_text(args.input))
    delta = min_degree(g)
    log_lines: list = []
    trace_rows: list = []
    if args.algo == "delta":
        matching = find_rainbow_matching_delta(g, check=args.check, log=log_lines.append)
        edges = sorted(matching.edges)
        bound = delta
    elif args.algo == "layered":
        matching = find_rainbow_matching_layered(
            g, check=args.check, trace=trace_rows.append
        )
        edges = sorted(matching.edges)
        bound = guaranteed_size(delta)
    else:  # oracle
        matching = max_rainbow_matching_exact(g)
        edges = sorted(matching.edges)
        bound = len(edges)
    ok, why = validate_rainbow_matching(g, edges)
    if not ok:
        raise InternalInvariantBroken(f"certificate failed revalidation: {why}")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            for row in trace_rows:
                fh.write(json.dumps(row) + "\n")
    if args.format == "json":
        payload = {
            "algo": args.algo,
            "vertices": g.vertex_count,
            "delta": delta,
            "size": len(edges),
            "bound": bound,
            "valid": True,
            "edges": [list(e) for e in edges],
        }
        if log_lines:
            payload["log"] = log_lines
        _write_text(args.out, json.dumps(payload, indent=2))
    else:
        header = [
            f"solve --algo {args.algo}",
            f"vertices: {g.vertex_count} delta: {delta}",
            f"size: {len(edges)} bound: {bound}",
            "valid: true",
        ]
        header.extend(f"log: {line}" for line in log_lines)
        _write_text(args.out, _solve_edges_text(header, edges))
    return 0


# ---------------------------------------------------------------- transversal


def _cmd_transversal(args) -> int:
    sq = parse_latin(_read_text(args.input))
    stats: dict = {}
    if args.cycle_free:
        result = cycle_free_transversal(sq, check=args.check, stats=stats)
        k_used = stats["k"]
        forbid = math.inf
        bound = corollary_bound(sq.order)
    else:
        if args.k is None or args.k < 2:
            raise PreconditionViolated(
                f"--k must be at least 2 (got {args.k}); use --cycle-free for the automatic cutoff"
            )
        result = build_short_cycle_free_transversal(
            sq, args.k, check=args.check, stats=stats
        )
        k_used = args.k
        forbid = args.k
        bound = stats["bound"]
    cells = sorted(result)
    ok, why = validate_transversal(sq, cells, forbid_cycles_up_to=forbid)
    if not ok:
        raise InternalInvariantBroken(f"certificate failed revalidation: {why}")
    parts = cycles_of(sq, cells)
    cycle_lengths = sorted(len(cyc) for cyc in parts.cycles)
    if args.format == "json":
        payload = {
            "order": sq.order,
            "k": k_used,
            "cycle_free": bool(args.cycle_free),
            "size": len(cells),
            "bound": bound,
            "valid": True,
            "cycles": cycle_lengths,
            "paths": len(parts.paths),
            "cells": [list(c) for c in cells],
        }
        if args.cycle_free:
            payload["cycles_removed"] = stats["cycles_removed"]
        _write_text(args.out, json.dumps(payload, indent=2))
    else:
        header = [
            "transversal" + (" --cycle-free" if args.cycle_free else f" --k {k_used}"),
            f"order: {sq.order} k: {k_used}",
            f"size: {len(cells)} bound: {bound}",
            f"cycles: {cycle_lengths} paths: {len(parts.paths)}",
            "valid: true",
        ]
        lines = [f"# {line}" for line in header]
        lines.extend(f"cell {r} {c} {s}" for r, c, s in cells)
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------- verify


def _parse_certificate(text: str) -> tuple[list, list]:
    edges = []
    cells = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] not in ("edge", "cell") or len(fields) != 4:
            raise BadShape(f"unrecognized certificate line: {line!r}")
        try:
            values = tuple(int(x) for x in fields[1:])
        except ValueError:
            raise BadShape(f"non-integer field in certificate line: {line!r}") from None
        (edges if fields[0] == "edge" else cells).append(values)
    return edges, cells


def _cmd_verify(args) -> int:
    instance = _read_text(args.input)
    edges, cells = _parse_certificate(_read_text(args.certificate))
    if edges and cells:
        raise BadShape("certificate mixes edge and cell lines")
    first = next(
        (l.strip() for l in instance.splitlines() if l.strip() and not l.strip().startswith("#")),
        "",
    )
    if first.startswith("graph"):
        if cells:
            raise BadShape("certificate holds cell lines but the instance is a graph")
        g = parse_graph(instance)
        ok, why = validate_rainbow_matching(g, edges)
    else:
        if edges:
            raise BadShape("certificate holds edge lines but the instance is a Latin square")
        sq = parse_latin(instance)
        forbid = math.inf if args.cycle_free else args.k
        ok, why = validate_transversal(sq, cells, forbid_cycles_up_to=forbid)
    if ok:
        print("valid")
        return 0
    print(f"invalid: {why}")
    return 3


# ---------------------------------------------------------------- sweep


_SUITE_ALIASES = {
    "theorem2": "delta",
    "theorem3": "layered",
    "theorem7": "shortcycle",
    "delta": "delta",
    "layered": "layered",
    "shortcycle": "shortcycle",
    "cyclefree": "cyclefree",
}


def parse_sizes(spec: str) -> list:
    """"2..6" and "49,64,100" and mixes of both, ascending runs kept as given."""
    sizes = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if ".." in part:
                lo, hi = part.split("..", 1)
                sizes.extend(range(int(lo), int(hi) + 1))
            else:
                sizes.append(int(part))
        except ValueError:
            raise InfeasibleParameters(f"bad size {part!r} in {spec!r}") from None
    if not sizes:
        raise InfeasibleParameters(f"no sizes in {spec!r}")
    return sizes


def _sweep_row(suite: str, size: int, trial: int, seed: int, k: int, check: bool) -> dict:
    """Run one instance; returns the CSV row fields."""
    instance = f"{suite}-{size}-{trial}"
    if suite == "delta":
        spread = seed % 14  # vertex counts from 4*delta-3 to 4*delta+10, at least 2
        g = generators.random_proper_graph(max(2, 4 * size - 3 + spread), size, seed)
        delta = min_degree(g)
        m = find_rainbow_matching_delta(g, check=check)
        ok, _ = validate_rainbow_matching(g, list(m))
        return {
            "instance": instance,
            "size": size,
            "k": "",
            "bound": delta,
            "achieved": len(m),
            "valid": ok,
            "augmentations": len(m),
        }
    if suite == "layered":
        sq = generators.random_square(size, seed=seed)
        g = to_bipartite_factorization(sq)
        delta = min_degree(g)
        rows: list = []
        m = find_rainbow_matching_layered(g, check=check, trace=rows.append)
        ok, _ = validate_rainbow_matching(g, list(m))
        summary = rows[-1] if rows else {}
        grown = summary.get("final", len(m)) - summary.get("initial", len(m))
        return {
            "instance": instance,
            "size": size,
            "k": "",
            "bound": guaranteed_size(delta),
            "achieved": len(m),
            "valid": ok,
            "augmentations": grown,
        }
    if suite == "shortcycle":
        sq = generators.random_square(size, seed=seed)
        stats: dict = {}
        t = build_short_cycle_free_transversal(sq, k, check=check, stats=stats)
        ok, _ = validate_transversal(sq, list(t), forbid_cycles_up_to=k)
        return {
            "instance": instance,
            "size": size,
            "k": k,
            "bound": theorem_bound(size, k),
            "achieved": len(t),
            "valid": ok,
            "augmentations": stats["augmentations"],
        }
    # cyclefree
    sq = generators.random_square(size, seed=seed)
    stats = {}
    t = cycle_free_transversal(sq, check=check, stats=stats)
    ok, _ = validate_transversal(sq, list(t), forbid_cycles_up_to=math.inf)
    return {
        "instance": instance,
        "size": size,
        "k": stats["k"],
        "bound": corollary_bound(size),
        "achieved": len(t),
        "valid": ok,
        "augmentations": stats["augmentations"],
    }


def _cmd_sweep(args) -> int:
    suite = _SUITE_ALIASES[args.suite]
    sizes = parse_sizes(args.sizes)
    negative = next((size for size in sizes if size < 0), None)
    if negative is not None:
        raise InfeasibleParameters(f"sweep sizes must be non-negative, got {negative}")
    if args.trials < 1:
        raise InfeasibleParameters(f"--trials must be at least 1, got {args.trials}")
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w", encoding="utf-8", newline="")
    fields = ["instance", "size", "k", "bound", "achieved", "valid", "augmentations"]
    if args.timing:
        fields.append("millis")
    writer = csv.DictWriter(out, fieldnames=fields, lineterminator="\n")
    margins: list = []
    bad = 0
    try:
        writer.writeheader()
        out.flush()
        for si, size in enumerate(sizes):
            for trial in range(args.trials):
                seed = generators.split_seed(args.seed, si * args.trials + trial)
                started = time.perf_counter()
                row = _sweep_row(suite, size, trial, seed, args.k, args.check)
                if args.timing:
                    row["millis"] = int((time.perf_counter() - started) * 1000)
                row["valid"] = "true" if row["valid"] else "false"
                writer.writerow(row)
                out.flush()
                if row["valid"] == "false":
                    bad += 1
                margins.append(row["achieved"] - row["bound"])
    except KeyboardInterrupt:
        print("interrupted; partial results flushed", file=sys.stderr)
        if out is not sys.stdout:
            out.close()
        return 130
    if out is not sys.stdout:
        out.close()
    if margins:
        print(
            f"rows: {len(margins)} margin min: {min(margins)}"
            f" mean: {sum(margins) / len(margins):.2f}",
            file=sys.stderr,
        )
    if bad:
        print(f"{bad} certificates failed revalidation", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------- wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rainbowmatch",
        description="Rainbow matchings in properly edge-colored graphs and"
        " short-cycle-free partial transversals of Latin squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instances")
    gen.add_argument(
        "--kind",
        required=True,
        choices=["graph", "square", "cyclic", "witness", "k4pair"],
    )
    gen.add_argument("--n", type=int, default=8, help="order / vertex count")
    gen.add_argument("--target", type=int, default=2, help="minimum degree for --kind graph")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="find a rainbow matching")
    solve.add_argument("--algo", required=True, choices=["delta", "layered", "oracle"])
    solve.add_argument("--input", required=True, help="graph file, or - for stdin")
    solve.add_argument("--format", choices=["text", "json"], default="text")
    solve.add_argument("--check", action="store_true", help="verify solver invariants while running")
    solve.add_argument("--trace", default=None, help="write per-round JSON lines (layered)")
    solve.add_argument("--out", default=None)
    solve.set_defaults(func=_cmd_solve)

    trans = sub.add_parser("transversal", help="build a short-cycle-free partial transversal")
    trans.add_argument("--input", required=True, help="Latin square file, or - for stdin")
    trans.add_argument("--k", type=int, default=None, help="forbid cycles of length <= k (k >= 2)")
    trans.add_argument("--cycle-free", action="store_true", help="remove all cycles; picks k automatically")
    trans.add_argument("--format", choices=["text", "json"], default="text")
    trans.add_argument("--check", action="store_true")
    trans.add_argument("--out", default=None)
    trans.set_defaults(func=_cmd_transversal)

    verify = sub.add_parser("verify", help="revalidate a certificate against its instance")
    verify.add_argument("--input", required=True, help="instance file")
    verify.add_argument("--certificate", required=True, help="edge/cell list, e.g. solve output")
    verify.add_argument("--k", type=int, default=0, help="forbid cycles of length <= k in transversals")
    verify.add_argument("--cycle-free", action="store_true", help="forbid all cycles in transversals")
    verify.set_defaults(func=_cmd_verify)

    sweep = sub.add_parser("sweep", help="run a suite over sizes and seeds, emit CSV")
    sweep.add_argument(
        "--suite",
        required=True,
        choices=sorted(_SUITE_ALIASES),
        help="delta/theorem2: graph sizes are minimum degrees;"
        " layered/theorem3, shortcycle/theorem7, cyclefree: sizes are square orders",
    )
    sweep.add_argument("--sizes", required=True, help='e.g. "2..6" or "49,64,100"')
    sweep.add_argument("--trials", type=int, default=10)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--k", type=int, default=2, help="cycle cutoff for the shortcycle suite")
    sweep.add_argument("--timing", action="store_true", help="append a millis column")
    sweep.add_argument("--check", action="store_true")
    sweep.add_argument("--out", default=None)
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _IO_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantBroken as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
