"""Seeded instances and op schedules for the benchmark workloads.

A workload is an endless sequence of blocks. A block is a fixed mix of
op kinds; the seed draws each op's size, column shuffle and generator
seed. Sizes come from a golden-ratio sequence with a seeded start, one
per op kind, so that every stretch of a run covers the kind's size
range nearly evenly: medians over a run then move with the program,
not with the sizes one seed happened to draw.

An instance is generated just before its ops and dropped after them,
so one instance is held at a time. Holding a whole schedule raises
the resident set many times over and slows the solvers through
garbage-collector scans of the held inputs.

The package is reached through its module attributes at call time
(``transversal.choose_color``, never a name bound at import), so the
traced run's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import certcheck
from rainbowmatch import cli, delta, generators, latin, layered, transversal

# the largest rainbow matching of generators.k4_factorization_pair: one
# edge per K4, since two disjoint edges inside one K4 share a colour
K4_PAIR_MAXIMUM = 2


@dataclass
class Op:
    """One timed call. run(traced) returns the raw result; check(result)
    returns (size above the stated bound or None, bytes for the digest)
    and raises certcheck.CheckFailed on a wrong output."""

    label: str
    run: Callable
    check: Callable


_GOLDEN = (5**0.5 - 1) / 2


class Sizes:
    """Sizes in [lo, hi] for one op kind, from a seeded golden-ratio sequence.

    The first size is hi, so that every run holds the kind's largest
    instance once and the resident-set peak does not hinge on the draw."""

    def __init__(self, rng: random.Random, lo: int, hi: int) -> None:
        self.lo, self.count, self.u = lo, hi - lo + 1, rng.random()
        self.next = hi

    def __call__(self) -> int:
        size = self.next
        self.u = (self.u + _GOLDEN) % 1.0
        self.next = self.lo + int(self.u * self.count)
        return size


def shuffled_cyclic_rows(n: int, rng: random.Random) -> tuple:
    """Rows of the addition table of Z_n, symbols 1..n, with the columns
    permuted by rng. O(n^2); the result is isotopic to Z_n."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(tuple((r + perm[c]) % n + 1 for c in range(n)) for r in range(n))


def _square_text(rows) -> str:
    return "\n".join([str(len(rows))] + [" ".join(map(str, row)) for row in rows]) + "\n"


def _graph_text(vertex_count: int, edges) -> str:
    lines = [f"graph {vertex_count} {len(edges)}"]
    lines.extend(f"{u} {v} {c}" for u, v, c in edges)
    return "\n".join(lines) + "\n"


def _run_cli(argv: list) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _exit_zero(result) -> str:
    code, out = result
    if code != 0:
        raise certcheck.CheckFailed(f"exit code {code}")
    return out


def _certificate(path: Path, kind: str) -> tuple:
    """The file's bytes and its `kind a b c` lines; comments are skipped."""
    data = path.read_bytes()
    items = []
    for line in data.decode("utf-8").splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] != kind or len(fields) != 4:
            raise certcheck.CheckFailed(f"unexpected certificate line {line!r}")
        items.append(tuple(int(x) for x in fields[1:]))
    return data, items


# ---------------------------------------------------------------- transversal-hard

TRANSVERSAL_KINDS = {"k2": 2, "k3": 3, "cyclefree": None}


def transversal_hard(rng: random.Random):
    """Blocks of fifteen ops cycling through k=2, k=3 and cycle-free, orders 200-400."""
    sizes = {kind: Sizes(rng, 200, 400) for kind in TRANSVERSAL_KINDS}
    while True:
        yield [("api-transversal", kind, sizes[kind](), rng.getrandbits(64))
               for _ in range(5) for kind in TRANSVERSAL_KINDS]


def _api_transversal(workdir: Path, kind: str, n: int, seed: int) -> list:
    rows = shuffled_cyclic_rows(n, random.Random(seed))
    square = latin.build_square(rows)
    k = TRANSVERSAL_KINDS[kind]

    def run(traced: bool):
        stats = {} if traced else None
        if k is None:
            return transversal.cycle_free_transversal(square, stats=stats)
        return transversal.build_short_cycle_free_transversal(square, k, stats=stats)

    def check(result):
        cells = tuple(result)
        if k is None:
            forbid, bound = math.inf, certcheck.cyclefree_bound(n)
        else:
            forbid, bound = k, certcheck.shortcycle_bound(n, k)
        return certcheck.check_transversal(rows, cells, forbid, bound), repr(cells).encode()

    return [Op(f"{kind}-{n}", run, check)]


# ---------------------------------------------------------------- matching

def matching(rng: random.Random):
    """Blocks of three delta ops (delta 30-90) to one layered op (order 96-192)."""
    deltas, orders = Sizes(rng, 30, 90), Sizes(rng, 96, 192)
    while True:
        block = []
        for _ in range(4):
            block += [("api-delta", deltas(), rng.randrange(14), rng.getrandbits(64))
                      for _ in range(3)]
            block.append(("api-layered", orders(), rng.getrandbits(64)))
        yield block


def _api_delta(workdir: Path, d: int, spread: int, seed: int) -> list:
    g = generators.random_proper_graph(4 * d - 3 + spread, d, seed)

    def run(traced: bool):
        return delta.find_rainbow_matching_delta(g)

    def check(result):
        colors = certcheck.edge_colors(g.edges)
        bound = certcheck.min_degree(g.vertex_count, colors)
        edges = tuple(result)
        return certcheck.check_matching(colors, edges, bound), repr(edges).encode()

    return [Op(f"delta-{d}", run, check)]


def _api_layered(workdir: Path, n: int, seed: int) -> list:
    rows = shuffled_cyclic_rows(n, random.Random(seed))
    g = latin.to_bipartite_factorization(latin.build_square(rows))

    def run(traced: bool):
        events: list = []
        return layered.find_rainbow_matching_layered(g, trace=events.append if traced else None)

    def check(result):
        colors = {(r, n + c): rows[r - 1][c - 1]
                  for r in range(1, n + 1) for c in range(1, n + 1)}
        edges = tuple(result)
        return certcheck.check_matching(colors, edges, certcheck.layered_bound(n)), repr(edges).encode()

    return [Op(f"layered-{n}", run, check)]


# ---------------------------------------------------------------- cli-sweep

SWEEP_BOUNDS = {
    "delta": lambda size: size,
    "layered": certcheck.layered_bound,
    "shortcycle": lambda size: certcheck.shortcycle_bound(size, 3),
    "cyclefree": certcheck.cyclefree_bound,
}


def cli_sweep(rng: random.Random):
    """Blocks of twelve one-row sweeps (three per suite; delta 8-24, orders
    24-56) and three file round trips, five cli.main calls."""
    sweeps = {suite: Sizes(rng, 8, 24) if suite == "delta" else Sizes(rng, 24, 56)
              for suite in SWEEP_BOUNDS}
    orders, deltas = Sizes(rng, 100, 200), Sizes(rng, 30, 60)
    while True:
        block = [("sweep", suite, sizes(), rng.getrandbits(32))
                 for suite, sizes in sweeps.items() for _ in range(3)]
        block.append(("transversal-file", orders(), rng.getrandbits(64)))
        block.append(("delta-file", deltas(), rng.randrange(14), rng.getrandbits(64)))
        block.append(("oracle-file",))
        yield block


def _sweep(workdir: Path, suite: str, size: int, seed: int) -> list:
    out = workdir / "sweep.csv"
    argv = ["sweep", "--suite", suite, "--sizes", str(size), "--trials", "1",
            "--seed", str(seed), "--k", "3", "--check", "--out", str(out)]

    def check(result):
        _exit_zero(result)
        data = out.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        if len(rows) != 1 or rows[0]["valid"] != "true":
            raise certcheck.CheckFailed(f"sweep wrote {rows!r}")
        bound = SWEEP_BOUNDS[suite](size)
        if int(rows[0]["bound"]) != bound:
            raise certcheck.CheckFailed(f"stated bound {rows[0]['bound']}, expected {bound}")
        achieved = int(rows[0]["achieved"])
        if achieved < bound:
            raise certcheck.CheckFailed(f"achieved {achieved}, below the bound {bound}")
        return achieved - bound, data

    return [Op(f"sweep-{suite}-{size}", lambda traced: _run_cli(argv), check)]


def _verify_op(label: str, argv: list) -> Op:
    def check(result):
        out = _exit_zero(result)
        if out.strip() != "valid":
            raise certcheck.CheckFailed(f"verify printed {out!r}")
        return None, out.encode()

    return Op(label, lambda traced: _run_cli(argv), check)


def _transversal_file(workdir: Path, n: int, seed: int) -> list:
    rows = shuffled_cyclic_rows(n, random.Random(seed))
    square, cert = workdir / "square.txt", workdir / "cells.txt"
    square.write_text(_square_text(rows), encoding="utf-8")
    solve = ["transversal", "--input", str(square), "--k", "2", "--out", str(cert)]

    def check(result):
        _exit_zero(result)
        data, cells = _certificate(cert, "cell")
        return certcheck.check_transversal(rows, cells, 2, certcheck.shortcycle_bound(n, 2)), data

    return [
        Op(f"transversal-file-{n}", lambda traced: _run_cli(solve), check),
        _verify_op(f"verify-cells-{n}", ["verify", "--input", str(square),
                                         "--certificate", str(cert), "--k", "2"]),
    ]


def _graph_round_trip(workdir: Path, label: str, g, algo: str, bound: int, verify: bool) -> list:
    graph, cert = workdir / "graph.txt", workdir / "edges.txt"
    graph.write_text(_graph_text(g.vertex_count, g.edges), encoding="utf-8")
    solve = ["solve", "--algo", algo, "--input", str(graph), "--out", str(cert)]

    def check(result):
        _exit_zero(result)
        data, edges = _certificate(cert, "edge")
        return certcheck.check_matching(certcheck.edge_colors(g.edges), edges, bound), data

    ops = [Op(label, lambda traced: _run_cli(solve), check)]
    if verify:
        ops.append(_verify_op(f"verify-{label}", ["verify", "--input", str(graph),
                                                  "--certificate", str(cert)]))
    return ops


def _delta_file(workdir: Path, d: int, spread: int, seed: int) -> list:
    g = generators.random_proper_graph(4 * d - 3 + spread, d, seed)
    bound = certcheck.min_degree(g.vertex_count, certcheck.edge_colors(g.edges))
    return _graph_round_trip(workdir, f"delta-file-{d}", g, "delta", bound, verify=True)


def _oracle_file(workdir: Path) -> list:
    g = generators.k4_factorization_pair()
    return _graph_round_trip(workdir, "oracle-k4pair", g, "oracle", K4_PAIR_MAXIMUM, verify=False)


# ---------------------------------------------------------------- registry

# name -> function of the run's rng that yields blocks of op specs
WORKLOADS = {
    "transversal-hard": transversal_hard,
    "matching": matching,
    "cli-sweep": cli_sweep,
}

_PREPARE = {
    "api-transversal": _api_transversal,
    "api-delta": _api_delta,
    "api-layered": _api_layered,
    "sweep": _sweep,
    "transversal-file": _transversal_file,
    "delta-file": _delta_file,
    "oracle-file": _oracle_file,
}


# spec kinds whose second field names the solver or the sweep suite
_SUBKINDS = {"api-transversal", "sweep"}


def first_of_each_kind(block: list) -> list:
    """The first spec of each op kind in a block; each transversal solver
    and each sweep suite is a kind of its own. Sizes makes it the largest
    of its kind."""
    firsts: dict = {}
    for spec in block:
        firsts.setdefault(spec[:2] if spec[0] in _SUBKINDS else spec[0], spec)
    return list(firsts.values())


def prepare(spec: tuple, workdir: Path) -> list:
    """Generate the spec's instance and return the ops that run on it."""
    return _PREPARE[spec[0]](workdir, *spec[1:])
