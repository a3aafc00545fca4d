"""Run one benchmark workload against the package in ../src and print its metrics.

    python3 perfbench/run.py --workload transversal-hard --seed 1 --seconds 25 --trace 0

One process, one caller, a closed loop and no threads: each op starts
when the previous one has been checked. Instances are generated just
before their ops, outside the op timer; that time is set-up. The run
works through whole blocks of ops (see workloads.py) until --seconds
of wall time have passed.

--trace 0 prints the end-to-end metrics: times scaled to a reference
speed (see SpeedScale), and the heap peak from an untimed pass after
the timed loop. --trace 1 runs every op twice,
first plain and then with the package's public functions wrapped (see
spans.py), prints the per-layer metrics, and writes the spans to
.perfbench_out/spans-<workload>.jsonl. Human-readable lines come first;
the last line of standard output is one JSON object.

Exit codes: 0 after a run, whether or not its ops were correct; 1 when
fewer than two ops succeeded; 2 when the package cannot be imported
from ../src.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


# Seconds the reference kernel takes on the reference machine (2-vCPU
# x86-64 container, Python 3.11). Op and set-up times are multiplied by
# REFERENCE_S over the kernel's time around them on the machine at hand.
REFERENCE_S = 0.005

_KERNEL_RNG = random.Random(7)
_KERNEL_ADJ = tuple(tuple(_KERNEL_RNG.randrange(300) for _ in range(4)) for _ in range(300))
_KERNEL_TABLE = tuple(tuple((r + 7 * c) % 400 + 1 for c in range(400)) for r in range(400))


def reference_kernel() -> int:
    """Fixed work of the kinds the solvers and generators do: seeded
    randrange draws, dict and set updates, recursive search over sets,
    and lookups in a large tuple table."""
    rng = random.Random(11)
    counts: dict = {}
    for _ in range(2500):
        key = rng.randrange(10007)
        counts[key] = counts.get(key, 0) + 1
    found: set = set()
    on_path: set = set()

    def walk(v: int, depth: int) -> None:
        for w in _KERNEL_ADJ[v]:
            if w not in on_path:
                found.add(w)
                if depth < 4:
                    on_path.add(w)
                    walk(w, depth + 1)
                    on_path.discard(w)

    for start in range(0, 300, 40):
        walk(start, 0)
    seen: set = set()
    for r in range(0, 400, 5):
        row = _KERNEL_TABLE[r]
        for c in range(0, 400, 7):
            seen.add((r, _KERNEL_TABLE[row[c] - 1][c]))
    return len(counts) + len(found) + len(seen)


class SpeedScale:
    """Tracks the machine's speed by timing the reference kernel.

    On a shared host the same Python code runs up to twice as slowly
    from one minute to the next. The kernel is timed between every two
    timed regions, and each region is scaled by REFERENCE_S over the
    mean of the kernel times just before and just after it. That
    cancels most of the drift and leaves any change in the program's
    own cost in full."""

    def __init__(self) -> None:
        self.last = self._kernel_s()

    @staticmethod
    def _kernel_s() -> float:
        # No collection inside the kernel: a full pass would scan the
        # program's live objects and charge them to the reference.
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_kernel()
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def scale(self) -> float:
        """The factor for the region since the previous call."""
        now = self._kernel_s()
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor


@dataclass
class Run:
    op_s: list = field(default_factory=list)  # wall times of the ops that passed their check
    op_ref_s: list = field(default_factory=list)  # the same, scaled to the reference speed
    plain_s: list = field(default_factory=list)  # --trace 1 only: the same ops, unwrapped
    block_setup_s: list = field(default_factory=list)
    block_setup_ref_s: list = field(default_factory=list)
    margins: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first_block_digest: str = ""
    digest: object = field(default_factory=hashlib.sha256)


def measure(workload: str, seed: int, seconds: float, workdir: Path, tracer=None) -> Run:
    """Run whole blocks of the workload until `seconds` have passed;
    at least one block, so `seconds` = 0 runs exactly one."""
    import spans
    import workloads

    patch = spans.Patch(tracer) if tracer is not None else None
    speed = SpeedScale()
    run = Run()
    started = time.perf_counter()
    for block in workloads.WORKLOADS[workload](random.Random(seed)):
        setup = setup_ref = 0.0
        for spec in block:
            took, scaled = _run_spec(run, spec, workdir, tracer, patch, speed)
            setup += took
            setup_ref += scaled
        run.block_setup_s.append(setup)
        run.block_setup_ref_s.append(setup_ref)
        if len(run.block_setup_s) == 1:
            run.first_block_digest = run.digest.hexdigest()
        if time.perf_counter() - started >= seconds:
            return run


def _run_spec(run: Run, spec: tuple, workdir: Path, tracer, patch, speed: SpeedScale) -> tuple:
    """Generate one instance, run its ops, and return the set-up time,
    raw and scaled. The instance dies with this frame, before the next
    one is generated."""
    import workloads

    if tracer is None:
        t0 = time.perf_counter()
        ops = workloads.prepare(spec, workdir)
        took = time.perf_counter() - t0
    else:
        tracer.phase, tracer.op = "setup", run.attempted
        with patch, tracer.span("bench.setup") as took_ns:
            ops = workloads.prepare(spec, workdir)
        took = took_ns[0] / 1e9
    scaled = took * speed.scale()
    for op in ops:
        _run_op(run, op, tracer, patch, speed)
    return took, scaled


def _run_op(run: Run, op, tracer, patch, speed: SpeedScale) -> None:
    run.attempted += 1
    try:
        if tracer is None:
            t0 = time.perf_counter()
            result = op.run(False)
            took = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            op.run(False)
            plain = time.perf_counter() - t0
            tracer.phase, tracer.op = "op", run.attempted
            with patch, tracer.span("bench.op") as took_ns:
                result = op.run(True)
            took = took_ns[0] / 1e9
        margin, output = op.check(result)
    except Exception:  # an op that raises or fails its check is counted, and the loop goes on
        run.failed += 1
        run.digest.update(f"{op.label}\0FAILED\0".encode())
        print(f"op {op.label} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return
    finally:
        result = None  # dropped before the kernel runs in speed.scale()
    if tracer is not None:
        run.plain_s.append(plain)
    run.op_s.append(took)
    run.op_ref_s.append(took * speed.scale())
    run.digest.update(op.label.encode() + b"\0" + output + b"\0")
    if margin is not None:
        run.margins.append(margin)


def _timings(op_s: list, block_setup_s: list) -> dict:
    return {
        "op_ms_p50": (statistics.median(op_s) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(op_s, n=10, method="inclusive")[-1] * 1e3, "ms"),
        "ops_per_s": (len(op_s) / sum(op_s), "1/s"),
        "setup_s": (statistics.median(block_setup_s), "s"),
    }


def heap_peak_mb(workload: str, seed: int, workdir: Path) -> float:
    """Peak Python heap of generating and solving one instance, the
    largest over the first instance of each op kind in the first block
    (see workloads.first_of_each_kind), measured with tracemalloc in an
    untimed pass.

    The process's resident-set peak depends on how earlier ops left the
    allocator's arenas and moved by up to 10% from seed to seed on the
    same op mix; this peak moves by under 0.1% between runs of one seed,
    and by a few percent across seeds. Outputs are not checked
    again here: the timed loop checked the same ops on the same inputs,
    and counted any that failed."""
    import workloads

    first_block = next(workloads.WORKLOADS[workload](random.Random(seed)))
    tracemalloc.start()
    try:
        peak = max(_heap_peak(spec, workdir) for spec in workloads.first_of_each_kind(first_block))
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _heap_peak(spec: tuple, workdir: Path) -> int:
    import workloads

    gc.collect()  # start each instance from the same heap, whatever ran before
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    for op in workloads.prepare(spec, workdir):
        try:
            op.run(False)
        except Exception:  # already counted as failed by the timed loop
            pass
    return tracemalloc.get_traced_memory()[1] - base


def end_to_end(run: Run, heap_mb: float) -> dict:
    """Times are scaled to the reference speed (see SpeedScale)."""
    return {
        **_timings(run.op_ref_s, run.block_setup_ref_s),
        "peak_heap_mb": (heap_mb, "MB"),
        "margin_mean": (statistics.fmean(run.margins), "count"),
    }


def per_layer(run: Run, tracer) -> dict:
    """Per-layer metrics from the traced run. Counts and self times are
    per op of the workload, summed over set-up and op phases; a share is
    op-phase self time over the traced op time."""
    ops = run.attempted
    op_ns = sum(run.op_s) * 1e9
    counters = tracer.counters

    def total_calls(name):
        return tracer.calls[("setup", name)] + tracer.calls[("op", name)]

    def total_self_s(name):
        return (tracer.self_ns[("setup", name)] + tracer.self_ns[("op", name)]) / 1e9

    def calls(name):
        return (total_calls(name) / ops, "calls/op")

    def self_s(*names):
        return (sum(total_self_s(n) for n in names) / ops, "s/op")

    def per_op(key):
        return (counters[key] / ops, "count/op")

    def ratio(num, den, unit="ratio"):
        return (num / den if den else 0.0, unit)

    def share(prefix):
        got = sum(ns for (phase, name), ns in tracer.self_ns.items()
                  if phase == "op" and name.startswith(prefix))
        return (got / op_ns, "share")

    expand_calls = total_calls("transversal.expand_layer")
    probes = total_calls("delta.extend_by_free_edge")
    return {
        "transversal.choose_color.calls": calls("transversal.choose_color"),
        "transversal.choose_color.self_s": self_s("transversal.choose_color"),
        "transversal.expand_layer.self_s": self_s("transversal.expand_layer"),
        "transversal.apply_augmentation.self_s": self_s("transversal.apply_augmentation"),
        "transversal.other.self_s": self_s("transversal.build_short_cycle_free_transversal",
                                           "transversal.cycle_free_transversal"),
        "transversal.augmentations": per_op("transversal.augmentations"),
        "transversal.layers_per_augmentation": ratio(expand_calls, counters["transversal.augmentations"]),
        "transversal.self_share": share("transversal."),
        "delta.extend_by_free_edge.calls": calls("delta.extend_by_free_edge"),
        "delta.extend_by_free_edge.self_s": self_s("delta.extend_by_free_edge"),
        "delta.resolve_case.self_s": self_s("delta.resolve_case"),
        "delta.chain_rotate.self_s": self_s("delta.chain_rotate"),
        "delta.other.self_s": self_s("delta.find_rainbow_matching_delta"),
        "delta.probes_per_level": ratio(probes, counters["delta.levels"]),
        "delta.outcome.matched": per_op("delta.outcome.Matched"),
        "delta.outcome.repeat_increased": per_op("delta.outcome.RepeatIncreased"),
        "delta.outcome.chains_extended": per_op("delta.outcome.ChainsExtended"),
        "delta.self_share": share("delta."),
        "layered.find.self_s": self_s("layered.find_rainbow_matching_layered"),
        "layered.rounds": ratio(counters["layered.rounds"], counters["layered.solves"], "rounds/solve"),
        "layered.levels": ratio(counters["layered.levels"], counters["layered.rounds"], "levels/round"),
        "layered.exchange_rate": ratio(counters["layered.exchanges"], counters["layered.rounds"]),
        "layered.self_share": share("layered."),
        "graphs.neighbors.calls": calls("graphs.neighbors"),
        "graphs.neighbors.self_s": self_s("graphs.neighbors"),
        "graphs.validate_rainbow_matching.calls": calls("graphs.validate_rainbow_matching"),
        "graphs.validate_rainbow_matching.self_s": self_s("graphs.validate_rainbow_matching"),
        "graphs.parse_graph.self_s": self_s("graphs.parse_graph"),
        "graphs.self_share": share("graphs."),
        "latin.validate_transversal.calls": calls("latin.validate_transversal"),
        "latin.validate_transversal.self_s": self_s("latin.validate_transversal"),
        "latin.cycles_of.self_s": self_s("latin.cycles_of"),
        "latin.parse_latin.self_s": self_s("latin.parse_latin"),
        "latin.to_bipartite_factorization.self_s": self_s("latin.to_bipartite_factorization"),
        "latin.self_share": share("latin."),
        "generators.random_square.calls": calls("generators.random_square"),
        "generators.random_square.self_s": self_s("generators.random_square"),
        "generators.random_square.steps_per_s": ratio(
            counters["generators.random_square.steps"],
            total_self_s("generators.random_square"), "steps/s"),
        "generators.random_square.self_share": share("generators.random_square"),
        "generators.random_proper_graph.self_s": self_s("generators.random_proper_graph"),
        "generators.self_share": share("generators."),
        "oracle.max_rainbow_matching_exact.self_s": self_s("oracle.max_rainbow_matching_exact"),
        "arith.int_kth_root.calls": calls("arith.int_kth_root"),
        "cli.main.calls": calls("cli.main"),
        "cli.other.self_s": self_s("cli.main"),
        "cli.self_share": share("cli."),
        "bench.self_share": share("bench.op"),
        "trace.overhead": ratio(sum(run.op_s), sum(run.plain_s)),
    }


def _import_package():
    """The package from this checkout's src/, or None."""
    sys.path.insert(0, str(SRC))
    try:
        import rainbowmatch
    except ImportError:
        return None
    if Path(rainbowmatch.__file__).resolve().parent.parent != SRC:
        return None
    return rainbowmatch


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import spans

    workdir = OUT / f"work-{args.workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    run = measure(args.workload, args.seed, args.seconds, workdir, tracer)
    if len(run.op_s) < 2 or not run.margins:
        print(f"error: {run.failed} of {run.attempted} ops failed, too few left to measure",
              file=sys.stderr)
        return 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        metrics = end_to_end(run, heap_peak_mb(args.workload, args.seed, workdir))
    else:
        metrics = per_layer(run, tracer)
        spans_path = OUT / f"spans-{args.workload}.jsonl"
        tracer.write_jsonl(spans_path)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.block_setup_s)} blocks, {run.attempted} ops attempted, {run.failed} failed")
    print(f"failed_frac {run.failed / run.attempted:.4f} failed/attempted")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if tracer is None:
        print(f"op_ms_p90 samples {len(run.op_s)}")
        for name, (value, unit) in _timings(run.op_s, run.block_setup_s).items():
            print(f"{name} {value:.6g} {unit} wall, unscaled")
        print(f"peak_rss_mb {rss_mb:.6g} MB process resident-set peak of the timed loop")
    else:
        print(f"spans {len(tracer.col_name)} written to {spans_path.relative_to(ROOT)}")
    print(f"digest first-block sha256 {run.first_block_digest}")
    print(f"digest all-ops sha256 {run.digest.hexdigest()} over {run.attempted} ops")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if _import_package() is None:
        print(f"error: cannot import rainbowmatch from {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
