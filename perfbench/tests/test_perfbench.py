"""Tests of the benchmark itself: inputs, checker, tracing and the command.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import types

import pytest

import certcheck
import run as bench
import spans
import workloads
from rainbowmatch import delta, generators, graphs, layered, transversal

ROOT = bench.ROOT


# ---------------------------------------------------------------- inputs and digests


def _blocks(workload, seed, count=3):
    blocks = workloads.WORKLOADS[workload](random.Random(seed))
    return [next(blocks) for _ in range(count)]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = _blocks(workload, 11)
    assert _blocks(workload, 11) == first
    assert _blocks(workload, 12) != first
    assert len({len(block) for block in first}) == 1
    spec = first[0][0]
    a, b = workloads.prepare(spec, tmp_path), workloads.prepare(spec, tmp_path)
    assert [op.label for op in a] == [op.label for op in b]


def test_sizes_start_at_the_top_and_cover_the_range():
    sizes = workloads.Sizes(random.Random(2), 30, 90)
    drawn = [sizes() for _ in range(122)]
    assert drawn[0] == 90
    assert set(drawn) == set(range(30, 91))


def test_shuffled_cyclic_rows_is_a_seeded_latin_square():
    rows = workloads.shuffled_cyclic_rows(9, random.Random(3))
    assert rows == workloads.shuffled_cyclic_rows(9, random.Random(3))
    assert rows != workloads.shuffled_cyclic_rows(9, random.Random(4))
    symbols = set(range(1, 10))
    assert all(set(row) == symbols for row in rows)
    assert all({row[c] for row in rows} == symbols for c in range(9))


def test_same_seed_gives_identical_digests(tmp_path):
    a = bench.measure("cli-sweep", 5, 0, tmp_path)
    b = bench.measure("cli-sweep", 5, 0, tmp_path)
    assert a.failed == b.failed == 0
    assert a.attempted == b.attempted == len(_blocks("cli-sweep", 5, 1)[0]) + 2
    assert a.digest.hexdigest() == b.digest.hexdigest() == a.first_block_digest
    c = bench.measure("cli-sweep", 6, 0, tmp_path)
    assert c.digest.hexdigest() != a.digest.hexdigest()


def test_heap_pass_covers_every_op_kind():
    firsts = workloads.first_of_each_kind(_blocks("transversal-hard", 1, 1)[0])
    assert [spec[1:3] for spec in firsts] == [("k2", 400), ("k3", 400), ("cyclefree", 400)]
    firsts = workloads.first_of_each_kind(_blocks("cli-sweep", 1, 1)[0])
    assert [spec[:2] for spec in firsts if spec[0] == "sweep"] == [
        ("sweep", suite) for suite in workloads.SWEEP_BOUNDS]
    assert {spec[0] for spec in firsts} == {"sweep", "transversal-file", "delta-file", "oracle-file"}


# ---------------------------------------------------------------- time scaling


def test_scaled_time_follows_the_program_cost():
    """An op that does its work twice reads as about twice as slow after
    scaling: the reference kernel cancels the machine's drift, not the
    program's cost."""
    g = generators.random_proper_graph(4 * 24 - 3, 24, 1)

    def check(result):
        return None, b""

    once = workloads.Op("once", lambda traced: delta.find_rainbow_matching_delta(g), check)
    twice = workloads.Op("twice", lambda traced: [delta.find_rainbow_matching_delta(g)
                                                  for _ in range(2)], check)
    speed = bench.SpeedScale()
    runs = {op.label: bench.Run() for op in (once, twice)}
    for _ in range(15):
        for op in (once, twice):
            bench._run_op(runs[op.label], op, None, None, speed)
    ratio = statistics.median(runs["twice"].op_ref_s) / statistics.median(runs["once"].op_ref_s)
    assert 1.6 < ratio < 2.4


# ---------------------------------------------------------------- checker

# Z_7's addition table: cell (r, c) holds (r + c - 2) % 7 + 1
CYCLIC_7 = tuple(tuple((r + c) % 7 + 1 for c in range(7)) for r in range(7))


def _cell(r, c):
    return (r, c, CYCLIC_7[r - 1][c - 1])


def test_checker_accepts_a_valid_transversal():
    assert certcheck.check_transversal(CYCLIC_7, [_cell(1, 2), _cell(2, 3)], math.inf, 1) == 1


def test_checker_rejects_a_repeated_symbol():
    assert _cell(1, 1)[2] == _cell(2, 7)[2]
    with pytest.raises(certcheck.CheckFailed, match="symbol 1 repeats"):
        certcheck.check_transversal(CYCLIC_7, [_cell(1, 1), _cell(2, 7)], 0, 0)


def test_checker_rejects_a_cell_outside_the_square():
    r, c, s = _cell(3, 4)
    with pytest.raises(certcheck.CheckFailed, match="not in the square"):
        certcheck.check_transversal(CYCLIC_7, [(r, c, s % 7 + 1)], 0, 0)
    with pytest.raises(certcheck.CheckFailed, match="not in the square"):
        certcheck.check_transversal(CYCLIC_7, [(8, 1, 1)], 0, 0)


def test_checker_rejects_a_k_cycle():
    three_cycle = [_cell(1, 2), _cell(2, 3), _cell(3, 1)]
    with pytest.raises(certcheck.CheckFailed, match="cycle of length 3"):
        certcheck.check_transversal(CYCLIC_7, three_cycle, 3, 0)
    with pytest.raises(certcheck.CheckFailed, match="cycle of length 3"):
        certcheck.check_transversal(CYCLIC_7, three_cycle, math.inf, 0)
    assert certcheck.check_transversal(CYCLIC_7, three_cycle, 2, 0) == 3
    with pytest.raises(certcheck.CheckFailed, match="cycle of length 1"):
        certcheck.check_transversal(CYCLIC_7, [_cell(4, 4)], 1, 0)


def test_checker_rejects_a_repeated_colour_and_a_shared_vertex():
    colors = certcheck.edge_colors([(1, 2, 1), (3, 4, 1), (1, 3, 2), (2, 4, 2)])
    assert certcheck.check_matching(colors, [(2, 1, 1)], 1) == 0
    with pytest.raises(certcheck.CheckFailed, match="colour 1 repeats"):
        certcheck.check_matching(colors, [(1, 2, 1), (3, 4, 1)], 0)
    with pytest.raises(certcheck.CheckFailed, match="shares a vertex"):
        certcheck.check_matching(colors, [(1, 2, 1), (2, 4, 2)], 0)
    with pytest.raises(certcheck.CheckFailed, match="not in the graph"):
        certcheck.check_matching(colors, [(1, 4, 1)], 0)
    with pytest.raises(certcheck.CheckFailed, match="below the bound"):
        certcheck.check_matching(colors, [(1, 2, 1)], 2)


def test_iroot_and_bounds_match_the_stated_bounds():
    for x in list(range(200)) + [10**40, 2**521 - 1]:
        for k in (1, 2, 3, 5):
            r = certcheck.iroot(x, k)
            assert r**k <= x < (r + 1) ** k
    for n in range(1, 420):
        assert certcheck.layered_bound(n) == layered.guaranteed_size(n)
        assert certcheck.cyclefree_bound(n) == transversal.corollary_bound(n)
        for k in (2, 3):
            assert certcheck.shortcycle_bound(n, k) == transversal.theorem_bound(n, k)


# ---------------------------------------------------------------- tracing


def _bindings():
    """id of every attribute of every package module, and of ColoredGraph's."""
    got = {("ColoredGraph", k): id(v) for k, v in vars(graphs.ColoredGraph).items()}
    for name, module in sys.modules.items():
        if isinstance(module, types.ModuleType) and name.startswith("rainbowmatch"):
            got.update({(name, k): id(v) for k, v in vars(module).items()})
    return got


def test_traced_run_restores_every_attribute(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    run = bench.measure("cli-sweep", 3, 0, tmp_path, tracer=tracer)
    assert _bindings() == before
    assert run.failed == 0
    assert tracer.calls[("op", "cli.main")] == run.attempted
    assert tracer.calls[("op", spans.NEIGHBORS)] > 0
    metrics = bench.per_layer(run, tracer)
    assert metrics["cli.main.calls"] == (1.0, "calls/op")
    assert 0 < metrics["generators.random_square.self_share"][0] < 1


def test_patch_restores_after_an_exception():
    before = _bindings()
    original = transversal.validate_transversal
    patch = spans.Patch(spans.Tracer())
    with pytest.raises(RuntimeError):
        with patch:
            assert transversal.validate_transversal is not original
            raise RuntimeError("op failed")
    assert _bindings() == before


def test_self_time_excludes_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(20000)))
    outer = tracer.wrap("m.outer", lambda: inner() + inner())
    outer()
    total = tracer.self_ns[("setup", "m.outer")] + tracer.self_ns[("setup", "m.inner")]
    span_ns = tracer.col_end[0] - tracer.col_start[0]
    assert total == span_ns
    assert list(tracer.col_parent) == [-1, 0, 0]


# ---------------------------------------------------------------- the command


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_other_seed_runs_clean_and_prints_every_metric():
    done = _bench(ROOT, "--workload", "cli-sweep", "--seed", "987654321",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for metric in declared["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_per_layer_names_match_the_declaration(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    run = bench.measure("cli-sweep", 1, 0, tmp_path, tracer=tracer)
    metrics = bench.per_layer(run, tracer)
    assert list(metrics) == [m["name"] for m in declared["per_layer"]]
    assert all(metrics[m["name"]][1] == m["unit"] for m in declared["per_layer"])


def test_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(tmp_path, "--workload", "matching", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert "{" not in done.stdout
