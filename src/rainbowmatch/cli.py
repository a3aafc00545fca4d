"""Command-line front end.

Subcommands: gen, solve, transversal, verify, sweep. Batch-oriented:
reads instance files, prints certificates or CSV reports, communicates
failure through exit codes:

  0  success
  1  I/O, parse or memory failure
  2  precondition or parameter failure
  3  internal invariant or certificate revalidation failure
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from typing import NamedTuple

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
from .graphs import _content_lines, format_graph, min_degree, parse_graph, validate_rainbow_matching
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

_IO_ERRORS = (OSError, UnicodeDecodeError, BadShape, NotLatin, SelfLoop, DuplicateEdge, ImproperColoring)
_PRECONDITION_ERRORS = (PreconditionViolated, InfeasibleParameters, BudgetExceeded)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    """Write text, ending in one newline, to stdout or to the file path."""
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit(args, payload: dict, title: str, rows: tuple, word: str, items: tuple) -> None:
    """Write a certificate as JSON, or as text: '# ' header lines, then
    one 'word a b c' line per edge or cell. The header is the title, one
    line per row of payload keys, each key written 'key: <its JSON
    value>', and one 'log: ' line per entry of the payload's log."""
    if args.format == "json":
        _write_text(args.out, json.dumps(payload, indent=2))
        return
    lines = [f"# {title}"]
    lines.extend("# " + " ".join(f"{key}: {json.dumps(payload[key])}" for key in row) for row in rows)
    lines.extend(f"# log: {line}" for line in payload.get("log", ()))
    lines.extend(f"{word} {a} {b} {c}" for a, b, c in items)
    _write_text(args.out, "\n".join(lines) + "\n")


# ---------------------------------------------------------------- gen


# each --kind, in the order the option lists them, and its file text
_GEN_KINDS = {
    "graph": lambda a: format_graph(generators.random_proper_graph(a.n, a.target, a.seed)),
    "square": lambda a: serialize_latin(generators.random_square(a.n, seed=a.seed)),
    "cyclic": lambda a: serialize_latin(generators.cyclic_square(a.n)),
    "witness": lambda a: serialize_latin(generators.witness_square_4()),
    "k4pair": lambda a: format_graph(generators.k4_factorization_pair()),
}


def _cmd_gen(args) -> int:
    _write_text(args.out, _GEN_KINDS[args.kind](args))
    return 0


# ---------------------------------------------------------------- solvers


# An adapter takes (instance, cycle cutoff k, check flag, events), calls
# its solver through this module's global name, so that a wrapper patched
# onto the name sees the call, and appends the solver's own report to
# events: the matching solvers' trace dicts or the transversal stats
# dict. It returns (result, k used, stated bound, augmentations). With
# events None the caller reads no report: the delta solver then gets no
# trace, and the adapters that read their own report keep it locally.


def _run_delta(g, k, check, events):
    m = find_rainbow_matching_delta(g, check=check, trace=None if events is None else events.append)
    return m, "", min_degree(g), len(m)


def _run_layered(g, k, check, events):
    events = [] if events is None else events
    m = find_rainbow_matching_layered(g, check=check, trace=events.append)
    return m, "", guaranteed_size(min_degree(g)), events[-1]["final"] - events[-1]["initial"]


def _run_oracle(g, k, check, events):
    m = max_rainbow_matching_exact(g)
    return m, "", len(m), 0


def _run_shortcycle(sq, k, check, events):
    stats: dict = {}
    if events is not None:
        events.append(stats)
    t = build_short_cycle_free_transversal(sq, k, check=check, stats=stats)
    return t, k, theorem_bound(sq.order, k), stats["augmentations"]


def _run_cyclefree(sq, k, check, events):
    stats: dict = {}
    if events is not None:
        events.append(stats)
    t = cycle_free_transversal(sq, check=check, stats=stats)
    return t, default_cycle_bound(sq.order), corollary_bound(sq.order), stats["augmentations"]


def _delta_instance(size: int, seed: int):
    spread = seed % 14  # vertex counts from 4*delta-3 to 4*delta+10, at least 2
    return generators.random_proper_graph(max(2, 4 * size - 3 + spread), size, seed)


def _square_instance(size: int, seed: int):
    return generators.random_square(size, seed=seed)


def _bipartite_instance(size: int, seed: int):
    return to_bipartite_factorization(_square_instance(size, seed))


class _Solver(NamedTuple):
    run: object  # the adapter
    make: object  # (size, seed) -> seeded sweep instance; None for oracle
    cutoff: object  # k used -> cycle cutoff for revalidation; None for matchings


_SOLVERS = {
    "delta": _Solver(_run_delta, _delta_instance, None),
    "layered": _Solver(_run_layered, _bipartite_instance, None),
    "oracle": _Solver(_run_oracle, None, None),
    "shortcycle": _Solver(_run_shortcycle, _square_instance, lambda k: k),
    "cyclefree": _Solver(_run_cyclefree, _square_instance, lambda k: math.inf),
}


class _Solved(NamedTuple):
    found: tuple  # the solver's sorted certificate
    k: object
    bound: int
    augmentations: int
    events: list | None  # None when the caller asked for no report
    why: str | None  # None when the certificate revalidated


def _solve(algo: str, instance, k, check: bool, report: bool = True) -> _Solved:
    """Run one solver of the table and revalidate its sorted certificate;
    report=False collects no events."""
    solver = _SOLVERS[algo]
    events = [] if report else None
    found, k_used, bound, augmentations = solver.run(instance, k, check, events)
    if solver.cutoff is None:
        _, why = validate_rainbow_matching(instance, found)
    else:
        _, why = validate_transversal(instance, found, forbid_cycles_up_to=solver.cutoff(k_used))
    return _Solved(found, k_used, bound, augmentations, events, why)


def _solve_valid(algo: str, instance, k, check: bool) -> _Solved:
    solved = _solve(algo, instance, k, check)
    if solved.why is not None:
        raise InternalInvariantBroken(f"certificate failed revalidation: {solved.why}")
    return solved


# ---------------------------------------------------------------- solve


def _log_line(event: dict) -> str:
    """The text of the '# log:' line for one delta trace event."""
    head = f"level {event['level']}: k={event['k']}"
    if event["outcome"] == "FullTwins":
        return f"{head} completed from full twin set"
    v, w = event["probe"]
    return f"{head} covered={event['covered']} probe {v}-{w} -> {event['outcome']}"


def _cmd_solve(args) -> int:
    g = parse_graph(_read_text(args.input))
    solved = _solve_valid(args.algo, g, None, args.check)
    edges, bound = solved.found, solved.bound
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(event) + "\n" for event in solved.events)
    log_lines = [_log_line(event) for event in solved.events] if args.algo == "delta" else []
    payload = {
        "algo": args.algo,
        "vertices": g.vertex_count,
        "delta": min_degree(g),
        "size": len(edges),
        "bound": bound,
        "valid": True,
        "edges": [list(e) for e in edges],
    }
    if log_lines:
        payload["log"] = log_lines
    rows = (("vertices", "delta"), ("size", "bound"), ("valid",))
    _emit(args, payload, f"solve --algo {args.algo}", rows, "edge", edges)
    return 0


# ---------------------------------------------------------------- transversal


def _cmd_transversal(args) -> int:
    sq = parse_latin(_read_text(args.input))
    if not args.cycle_free and (args.k is None or args.k < 2):
        raise PreconditionViolated(
            f"--k must be at least 2 (got {args.k}); use --cycle-free for the automatic cutoff"
        )
    algo = "cyclefree" if args.cycle_free else "shortcycle"
    solved = _solve_valid(algo, sq, args.k, args.check)
    cells, k_used, bound = solved.found, solved.k, solved.bound
    parts = cycles_of(sq, cells)
    payload = {
        "order": sq.order,
        "k": k_used,
        "cycle_free": bool(args.cycle_free),
        "size": len(cells),
        "bound": bound,
        "valid": True,
        "cycles": sorted(len(cyc) for cyc in parts.cycles),
        "paths": len(parts.paths),
        "cells": [list(c) for c in cells],
    }
    if args.cycle_free:
        payload["cycles_removed"] = solved.events[-1]["cycles_removed"]
    title = "transversal" + (" --cycle-free" if args.cycle_free else f" --k {k_used}")
    rows = (("order", "k"), ("size", "bound"), ("cycles", "paths"), ("valid",))
    _emit(args, payload, title, rows, "cell", cells)
    return 0


# ---------------------------------------------------------------- verify


def _parse_certificate(text: str) -> tuple[list, list]:
    edges = []
    cells = []
    for _, line in _content_lines(text):
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
    if args.k is not None and args.k < 0:
        raise InfeasibleParameters(f"--k must be non-negative, got {args.k}")
    instance = _read_text(args.input)
    edges, cells = _parse_certificate(_read_text(args.certificate))
    if edges and cells:
        raise BadShape("certificate mixes edge and cell lines")
    _, first = next(_content_lines(instance), (0, ""))
    if first.startswith("graph"):
        if cells:
            raise BadShape("certificate holds cell lines but the instance is a graph")
        g = parse_graph(instance)
        ok, why = validate_rainbow_matching(g, edges)
    else:
        if edges:
            raise BadShape("certificate holds edge lines but the instance is a Latin square")
        sq = parse_latin(instance)
        forbid = math.inf if args.cycle_free else args.k or 0
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
    """"2..6" and "49,64,100" and mixes of both, as one range per part
    in the order given. The ranges stay lazy, so a huge one costs
    nothing until its sizes run."""
    parts = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition("..")
        try:
            parts.append(range(int(lo), int(hi if sep else lo) + 1))
        except ValueError:
            raise InfeasibleParameters(f"bad size {part!r} in {spec!r}") from None
    if not any(parts):
        raise InfeasibleParameters(f"no sizes in {spec!r}")
    return parts


def _sweep_row(suite: str, size: int, trial: int, seed: int, k: int, check: bool) -> dict:
    """Run one instance; returns the CSV row fields."""
    solved = _solve(suite, _SOLVERS[suite].make(size, seed), k, check, report=False)
    return {
        "instance": f"{suite}-{size}-{trial}",
        "size": size,
        "k": solved.k,
        "bound": solved.bound,
        "achieved": len(solved.found),
        "valid": "true" if solved.why is None else "false",
        "augmentations": solved.augmentations,
    }


def _cmd_sweep(args) -> int:
    suite = _SUITE_ALIASES[args.suite]
    parts = parse_sizes(args.sizes)
    negative = next((part[0] for part in parts if part and part[0] < 0), None)
    if negative is not None:
        raise InfeasibleParameters(f"sweep sizes must be non-negative, got {negative}")
    if args.trials < 1:
        raise InfeasibleParameters(f"--trials must be at least 1, got {args.trials}")
    if suite == "shortcycle" and args.k < 2:
        raise InfeasibleParameters(
            f"--k must be at least 2 for the shortcycle suite, got {args.k}"
        )
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
        for si, size in enumerate(itertools.chain.from_iterable(parts)):
            for trial in range(args.trials):
                seed = generators.split_seed(args.seed, si * args.trials + trial)
                started = time.perf_counter()
                row = _sweep_row(suite, size, trial, seed, args.k, args.check)
                if args.timing:
                    row["millis"] = int((time.perf_counter() - started) * 1000)
                writer.writerow(row)
                out.flush()
                if row["valid"] == "false":
                    bad += 1
                margins.append(row["achieved"] - row["bound"])
    except KeyboardInterrupt:
        print("interrupted; partial results flushed", file=sys.stderr)
        return 130
    finally:
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
        choices=list(_GEN_KINDS),
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
    solve.add_argument("--trace", default=None, help="write the solver's trace events as JSON lines")
    solve.add_argument("--out", default=None)
    solve.set_defaults(func=_cmd_solve)

    trans = sub.add_parser("transversal", help="build a short-cycle-free partial transversal")
    trans.add_argument("--input", required=True, help="Latin square file, or - for stdin")
    cutoff = trans.add_mutually_exclusive_group()
    cutoff.add_argument("--k", type=int, default=None, help="forbid cycles of length <= k (k >= 2)")
    cutoff.add_argument("--cycle-free", action="store_true", help="remove all cycles; picks k automatically")
    trans.add_argument("--format", choices=["text", "json"], default="text")
    trans.add_argument("--check", action="store_true")
    trans.add_argument("--out", default=None)
    trans.set_defaults(func=_cmd_transversal)

    verify = sub.add_parser("verify", help="revalidate a certificate against its instance")
    verify.add_argument("--input", required=True, help="instance file")
    verify.add_argument("--certificate", required=True, help="edge/cell list, e.g. solve output")
    cutoff = verify.add_mutually_exclusive_group()
    # default None, not 0: argparse lets a flag equal to its default pass the exclusive group
    cutoff.add_argument(
        "--k", type=int, default=None, help="forbid cycles of length <= k in transversals (0: none)"
    )
    cutoff.add_argument("--cycle-free", action="store_true", help="forbid all cycles in transversals")
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantBroken as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
