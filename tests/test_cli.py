"""End-to-end command-line behavior, driven through main()."""

import contextlib
import hashlib
import io
import itertools
import json
import re
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowmatch import (
    InternalInvariantBroken,
    build_short_cycle_free_transversal,
    find_rainbow_matching_delta,
    format_graph,
    random_proper_graph,
    random_square,
    serialize_latin,
)
from rainbowmatch import cli
from rainbowmatch.cli import main, parse_sizes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_sizes_forms():
    def sizes(spec):
        return list(itertools.chain.from_iterable(parse_sizes(spec)))

    assert sizes("2..6") == [2, 3, 4, 5, 6]
    assert sizes("49,64,100") == [49, 64, 100]
    assert sizes("1..3,10") == [1, 2, 3, 10]


def test_gen_graph_then_solve_then_verify(tmp_path, capsys):
    inst = tmp_path / "g.txt"
    cert = tmp_path / "m.txt"
    code, _, _ = run(capsys, "gen", "--kind", "graph", "--n", "13", "--target", "4",
                     "--seed", "7", "--out", str(inst))
    assert code == 0
    code, _, _ = run(capsys, "solve", "--algo", "delta", "--input", str(inst),
                     "--out", str(cert))
    assert code == 0
    text = cert.read_text()
    assert "# size: 4 bound: 4" in text
    assert "# valid: true" in text
    code, out, _ = run(capsys, "verify", "--input", str(inst), "--certificate", str(cert))
    assert code == 0
    assert out.strip() == "valid"


def test_solve_json_payload(tmp_path, capsys):
    inst = tmp_path / "g.txt"
    run(capsys, "gen", "--kind", "graph", "--n", "9", "--target", "3",
        "--seed", "1", "--out", str(inst))
    code, out, _ = run(capsys, "solve", "--algo", "delta", "--input", str(inst),
                       "--format", "json", "--check")
    assert code == 0
    payload = json.loads(out)
    assert payload["algo"] == "delta"
    assert payload["size"] == payload["bound"] == payload["delta"] == 3
    assert payload["valid"] is True
    assert all(len(e) == 3 for e in payload["edges"])


def test_solve_layered_with_trace(tmp_path, capsys):
    inst = tmp_path / "g.txt"
    trace = tmp_path / "trace.jsonl"
    run(capsys, "gen", "--kind", "square", "--n", "8", "--seed", "5", "--out", str(inst))
    square_text = inst.read_text()
    # factorize by hand: solve only reads graphs, so gen the k4 pair instead
    g = tmp_path / "pair.txt"
    run(capsys, "gen", "--kind", "k4pair", "--out", str(g))
    code, out, _ = run(capsys, "solve", "--algo", "layered", "--input", str(g),
                       "--trace", str(trace))
    assert code == 0
    assert "# size: 2" in out
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert rows and rows[-1]["final"] == 2
    assert square_text.splitlines()[0].strip() == "8"


def test_solve_oracle_on_small_cycle(tmp_path, capsys):
    inst = tmp_path / "c4.txt"
    inst.write_text("graph 4 4\n1 2 1\n2 3 2\n3 4 1\n1 4 2\n")
    code, out, _ = run(capsys, "solve", "--algo", "oracle", "--input", str(inst),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["size"] == 1


def test_solve_delta_precondition_exit_code(tmp_path, capsys):
    inst = tmp_path / "c4.txt"
    inst.write_text("graph 4 4\n1 2 1\n2 3 2\n3 4 1\n1 4 2\n")
    # delta 2 needs 5 vertices; C4 has 4
    code, _, err = run(capsys, "solve", "--algo", "delta", "--input", str(inst))
    assert code == 2
    assert "error:" in err


def test_malformed_graph_exit_code(tmp_path, capsys):
    inst = tmp_path / "bad.txt"
    inst.write_text("graph 3 1\n1 1 1\n")
    code, _, err = run(capsys, "solve", "--algo", "delta", "--input", str(inst))
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("text, message", [
    ("3\n30 10 20\n# a comment\n\n10 20 20\n20 30 10\n", "line 5: symbol 20 repeated in row 2"),
    ("# order\n3\n7 -4 0\n0 7 -4\n# last row\n7 0 -4\n", "line 6: symbol 7 repeated in column 1"),
], ids=["row", "column"])
def test_a_repeat_in_a_square_file_exits_1_naming_its_line(tmp_path, capsys, text, message):
    inst = tmp_path / "bad.txt"
    inst.write_text(text)
    code, _, err = run(capsys, "transversal", "--input", str(inst), "--k", "3")
    assert code == 1
    assert err == f"error: {message}\n"


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--algo", "delta",
                       "--input", str(tmp_path / "nope.txt"))
    assert code == 1


def test_non_utf8_file_exit_code(tmp_path, capsys):
    inst = tmp_path / "bad.txt"
    inst.write_bytes(b"graph 2 1\n1 2 \xff\n")
    code, _, err = run(capsys, "solve", "--algo", "delta", "--input", str(inst))
    assert code == 1
    assert "error:" in err


def test_verify_detects_corruption(tmp_path, capsys):
    inst = tmp_path / "g.txt"
    cert = tmp_path / "m.txt"
    run(capsys, "gen", "--kind", "graph", "--n", "13", "--target", "3",
        "--seed", "3", "--out", str(inst))
    run(capsys, "solve", "--algo", "delta", "--input", str(inst), "--out", str(cert))
    lines = [l for l in cert.read_text().splitlines() if l.startswith("edge ")]
    # claim the same edge twice: same color, so the matching is not rainbow
    cert.write_text(f"{lines[0]}\n{lines[0]}\n")
    code, out, _ = run(capsys, "verify", "--input", str(inst), "--certificate", str(cert))
    assert code == 3
    assert out.startswith("invalid:")


def _delta_with_one_edge_swapped(bad_calls):
    """The delta solver, except that on the calls numbered in bad_calls
    its first edge takes a color that the graph does not have."""
    calls = itertools.count()

    def solver(g, **kwargs):
        m = find_rainbow_matching_delta(g, **kwargs)
        if next(calls) not in bad_calls:
            return m
        (u, v, _), *rest = m
        return ((u, v, 1 + max(c for _, _, c in g.edges)), *rest)

    return solver


def test_solve_exits_3_when_the_certificate_fails_revalidation(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "g.txt"
    run(capsys, "gen", "--kind", "graph", "--n", "13", "--target", "4",
        "--seed", "7", "--out", str(inst))
    monkeypatch.setattr(cli, "find_rainbow_matching_delta", _delta_with_one_edge_swapped({0}))
    code, out, err = run(capsys, "solve", "--algo", "delta", "--input", str(inst))
    assert (code, out) == (3, "")
    assert "certificate failed revalidation" in err


def test_sweep_writes_every_row_and_exits_3_on_a_bad_certificate(capsys, monkeypatch):
    argv = ("sweep", "--suite", "delta", "--sizes", "2..4", "--trials", "1", "--seed", "5")
    code, clean, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(cli, "find_rainbow_matching_delta", _delta_with_one_edge_swapped({1}))
    code, out, err = run(capsys, *argv)
    assert code == 3
    header, *rows = clean.splitlines()
    rows[1] = rows[1].replace(",true,", ",false,")
    assert out.splitlines() == [header, *rows]
    assert "1 certificates failed revalidation" in err


def test_verify_rejects_a_certificate_mixing_edges_and_cells(tmp_path, capsys):
    inst = tmp_path / "g.txt"
    cert = tmp_path / "mixed.txt"
    inst.write_text("graph 4 2\n1 2 1\n3 4 2\n")
    cert.write_text("edge 1 2 1\ncell 1 1 1\n")
    code, out, err = run(capsys, "verify", "--input", str(inst), "--certificate", str(cert))
    assert (code, out) == (1, "")
    assert "mixes edge and cell lines" in err


def test_json_out_file_ends_in_one_newline(tmp_path, capsys):
    inst = tmp_path / "g.txt"
    cert = tmp_path / "m.json"
    run(capsys, "gen", "--kind", "graph", "--n", "9", "--target", "3",
        "--seed", "1", "--out", str(inst))
    argv = ("solve", "--algo", "delta", "--input", str(inst), "--format", "json")
    code, printed, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--out", str(cert))
    assert (code, out) == (0, "")
    text = cert.read_text()
    assert text.endswith("}\n") and not text.endswith("\n\n")
    assert text == printed


def test_transversal_text_and_json(tmp_path, capsys):
    inst = tmp_path / "sq.txt"
    run(capsys, "gen", "--kind", "square", "--n", "9", "--seed", "2", "--out", str(inst))
    code, out, _ = run(capsys, "transversal", "--input", str(inst), "--k", "2")
    assert code == 0
    assert "# order: 9 k: 2" in out
    assert "# valid: true" in out
    assert any(line.startswith("cell ") for line in out.splitlines())
    code, out, _ = run(capsys, "transversal", "--input", str(inst), "--k", "2",
                       "--format", "json", "--check")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 9 and payload["k"] == 2
    assert payload["valid"] is True
    assert all(length > 2 for length in payload["cycles"])


def test_transversal_requires_k_or_cycle_free(tmp_path, capsys):
    inst = tmp_path / "sq.txt"
    run(capsys, "gen", "--kind", "cyclic", "--n", "5", "--out", str(inst))
    code, _, err = run(capsys, "transversal", "--input", str(inst))
    assert code == 2
    code, _, _ = run(capsys, "transversal", "--input", str(inst), "--k", "1")
    assert code == 2


def test_transversal_cycle_free_reports_removals(tmp_path, capsys):
    inst = tmp_path / "sq.txt"
    run(capsys, "gen", "--kind", "witness", "--out", str(inst))
    code, out, _ = run(capsys, "transversal", "--input", str(inst), "--cycle-free",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cycle_free"] is True
    assert payload["cycles"] == []
    assert payload["size"] == 2
    assert "cycles_removed" in payload


def test_verify_transversal_certificate(tmp_path, capsys):
    inst = tmp_path / "sq.txt"
    cert = tmp_path / "t.txt"
    run(capsys, "gen", "--kind", "square", "--n", "7", "--seed", "9", "--out", str(inst))
    run(capsys, "transversal", "--input", str(inst), "--k", "2", "--out", str(cert))
    code, out, _ = run(capsys, "verify", "--input", str(inst),
                       "--certificate", str(cert), "--k", "2")
    assert code == 0 and out.strip() == "valid"
    # a loop cell fails once all cycles are forbidden
    cert.write_text("cell 1 1 0\n")
    code, out, _ = run(capsys, "verify", "--input", str(inst),
                       "--certificate", str(cert), "--cycle-free")
    assert code == 3


def test_solve_reads_stdin(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("graph 2 1\n1 2 1\n"))
    code, out, _ = run(capsys, "solve", "--algo", "oracle", "--input", "-")
    assert code == 0
    assert "edge 1 2 1" in out


def test_sweep_csv_schema_and_determinism(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        code, _, err = run(capsys, "sweep", "--suite", "delta", "--sizes", "2..3",
                           "--trials", "2", "--seed", "11", "--out", str(out))
        assert code == 0
        assert "rows: 4" in err
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "instance,size,k,bound,achieved,valid,augmentations"
    assert len(lines) == 5
    assert all(",true," in line for line in lines[1:])


def test_sweep_seed_changes_rows(tmp_path, capsys):
    # the delta suite's columns are all pinned by its guarantee, so use
    # a suite whose achieved sizes actually depend on the instances
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "sweep", "--suite", "shortcycle", "--sizes", "5..8", "--trials", "2",
        "--seed", "1", "--out", str(a))
    run(capsys, "sweep", "--suite", "shortcycle", "--sizes", "5..8", "--trials", "2",
        "--seed", "2", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_sweep_aliases_match_canonical_names(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run(capsys, "sweep", "--suite", "theorem3", "--sizes", "6", "--trials", "2",
        "--seed", "3", "--out", str(a))
    run(capsys, "sweep", "--suite", "layered", "--sizes", "6", "--trials", "2",
        "--seed", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_shortcycle_uses_k(tmp_path, capsys):
    out_file = tmp_path / "s.csv"
    code, _, _ = run(capsys, "sweep", "--suite", "shortcycle", "--sizes", "9",
                     "--trials", "2", "--seed", "5", "--k", "3", "--out", str(out_file))
    assert code == 0
    rows = out_file.read_text().splitlines()[1:]
    assert all(row.split(",")[2] == "3" for row in rows)


def test_sweep_timing_appends_column(tmp_path, capsys):
    out_file = tmp_path / "t.csv"
    run(capsys, "sweep", "--suite", "cyclefree", "--sizes", "5", "--trials", "1",
        "--seed", "0", "--timing", "--out", str(out_file))
    lines = out_file.read_text().splitlines()
    assert lines[0].endswith(",millis")
    assert len(lines[1].split(",")) == 8


def test_sweep_stdout_by_default(capsys):
    code, out, err = run(capsys, "sweep", "--suite", "cyclefree", "--sizes", "4",
                         "--trials", "1", "--seed", "0")
    assert code == 0
    assert out.splitlines()[0].startswith("instance,")
    assert "margin min:" in err


def test_verify_rejects_cell_lines_against_a_graph(tmp_path, capsys):
    inst = tmp_path / "g.txt"
    cert = tmp_path / "t.txt"
    inst.write_text("graph 4 4\n1 2 1\n2 3 2\n3 4 1\n1 4 2\n")
    cert.write_text("cell 1 2 1\n")
    code, out, err = run(capsys, "verify", "--input", str(inst), "--certificate", str(cert))
    assert code == 1
    assert out == ""
    assert "cell lines" in err


def test_verify_rejects_edge_lines_against_a_square(tmp_path, capsys):
    inst = tmp_path / "sq.txt"
    cert = tmp_path / "m.txt"
    run(capsys, "gen", "--kind", "cyclic", "--n", "5", "--out", str(inst))
    cert.write_text("edge 1 2 1\n")
    code, out, err = run(capsys, "verify", "--input", str(inst), "--certificate", str(cert))
    assert code == 1
    assert out == ""
    assert "edge lines" in err


def test_verify_accepts_an_empty_certificate(tmp_path, capsys):
    # verify checks validity, not size: no cells is a valid transversal
    inst = tmp_path / "sq.txt"
    cert = tmp_path / "empty.txt"
    run(capsys, "gen", "--kind", "cyclic", "--n", "5", "--out", str(inst))
    cert.write_text("# nothing selected\n")
    code, out, _ = run(capsys, "verify", "--input", str(inst), "--certificate", str(cert),
                       "--cycle-free")
    assert code == 0 and out.strip() == "valid"


def test_verify_non_integer_field_exit_code(tmp_path, capsys):
    inst = tmp_path / "sq.txt"
    cert = tmp_path / "t.txt"
    run(capsys, "gen", "--kind", "cyclic", "--n", "5", "--out", str(inst))
    cert.write_text("cell 1 x 1\n")
    code, _, err = run(capsys, "verify", "--input", str(inst), "--certificate", str(cert))
    assert code == 1
    assert "error:" in err


def test_sweep_bad_sizes_exit_code(capsys):
    code, out, err = run(capsys, "sweep", "--suite", "delta", "--sizes", "2..x",
                         "--trials", "1")
    assert code == 2
    assert "error:" in err and "2..x" in err
    assert out == ""


def test_transversal_with_a_large_cycle_bound(tmp_path, capsys):
    # the bound's root once overflowed a float after the solve finished
    inst = tmp_path / "sq.txt"
    run(capsys, "gen", "--kind", "cyclic", "--n", "5", "--out", str(inst))
    code, out, _ = run(capsys, "transversal", "--input", str(inst), "--k", "400",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["bound"] == 0


def test_transversal_with_a_huge_cycle_bound(tmp_path, capsys):
    # 6**k * n**(k-1) once took seconds to build for k = 10**6
    inst = tmp_path / "sq.txt"
    run(capsys, "gen", "--kind", "cyclic", "--n", "5", "--out", str(inst))
    started = time.perf_counter()
    code, out, _ = run(capsys, "transversal", "--input", str(inst), "--k", "1000000",
                       "--check", "--format", "json")
    assert time.perf_counter() - started < 1
    assert code == 0
    assert json.loads(out)["bound"] == 0


def test_sweep_huge_size_range_is_lazy(monkeypatch, capsys):
    huge = str(10**30)
    code, out, err = run(capsys, "sweep", "--suite", "delta", f"--sizes=-1..{huge}",
                         "--trials", "1")
    assert code == 2
    assert "got -1" in err
    assert out == ""
    calls = []
    sweep_row = cli._sweep_row

    def interrupted_on_third(*args):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return sweep_row(*args)

    monkeypatch.setattr(cli, "_sweep_row", interrupted_on_third)
    code, out, err = run(capsys, "sweep", "--suite", "delta", "--sizes", f"0..{huge}",
                         "--trials", "1")
    assert code == 130
    assert "interrupted" in err
    header, *rows = out.splitlines()
    assert header.startswith("instance,")
    assert [row.split(",")[0] for row in rows] == ["delta-0-0", "delta-1-0"]


def test_sweep_closes_out_when_a_row_raises(monkeypatch, tmp_path, capsys):
    # an unclosed --out file warns when it is collected, and warnings are errors
    def broken_row(*args):
        raise InternalInvariantBroken("row failed")

    monkeypatch.setattr(cli, "_sweep_row", broken_row)
    out_file = tmp_path / "s.csv"
    code, out, err = run(capsys, "sweep", "--suite", "delta", "--sizes", "3",
                         "--trials", "1", "--out", str(out_file))
    assert code == 3
    assert "row failed" in err
    assert out_file.read_text().startswith("instance,")


def _out_of_memory(*args, **kwargs):
    raise MemoryError


def test_gen_out_of_memory_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(cli.generators, "cyclic_square", _out_of_memory)
    code, out, err = run(capsys, "gen", "--kind", "cyclic", "--n", "99999999999")
    assert (code, out, err) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize("argv, out", [
    (["gen", "--kind", "graph", "--n", "100000000000", "--target", "2", "--seed", "1"], ""),
    (["sweep", "--suite", "delta", "--sizes", "1000000000000..1000000000001",
      "--trials", "1", "--seed", "1"], "instance,size,k,bound,achieved,valid,augmentations\n"),
])
def test_a_graph_over_the_work_ceiling_is_refused_before_allocating(capsys, argv, out):
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code = main(argv)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, out)
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "over the limit of" in captured.err and "Traceback" not in captured.err
    assert elapsed < 1 and peak < 2**20


@pytest.mark.parametrize("argv, out", [
    (["gen", "--kind", "cyclic", "--n", "99999999999"], ""),
    (["gen", "--kind", "square", "--n", "3000", "--seed", "1"], ""),
    (["sweep", "--suite", "shortcycle", "--sizes", "3000", "--trials", "1", "--seed", "1"],
     "instance,size,k,bound,achieved,valid,augmentations\n"),
], ids=["gen-cyclic", "gen-square", "sweep-square"])
def test_a_square_over_the_work_ceiling_is_refused_before_allocating(capsys, argv, out):
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code = main(argv)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, out)
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "over the limit of" in captured.err and "Traceback" not in captured.err
    assert elapsed < 1 and peak < 2**20


def test_sweep_out_of_memory_after_the_header(monkeypatch, tmp_path, capsys):
    opened = []

    def recorded_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(cli, "open", recorded_open, raising=False)
    monkeypatch.setattr(cli.generators, "random_proper_graph", _out_of_memory)
    out_file = tmp_path / "s.csv"
    code, out, err = run(capsys, "sweep", "--suite", "delta", "--sizes", "3",
                         "--trials", "1", "--out", str(out_file))
    assert (code, out, err) == (1, "", "error: out of memory\n")
    assert [fh.closed for fh in opened] == [True]
    assert out_file.read_text() == "instance,size,k,bound,achieved,valid,augmentations\n"


def test_sweep_non_positive_trials_exit_code(tmp_path, capsys):
    out_file = tmp_path / "t.csv"
    for trials in ("0", "-1"):
        code, out, err = run(capsys, "sweep", "--suite", "delta", "--sizes", "3",
                             "--trials", trials, "--out", str(out_file))
        assert code == 2
        assert f"--trials must be at least 1, got {trials}" in err
        assert out == ""
        assert not out_file.exists()


def test_sweep_negative_size_is_named(capsys):
    for suite in ("delta", "layered"):
        code, out, err = run(capsys, "sweep", "--suite", suite, "--sizes", "3,-2",
                             "--trials", "1")
        assert code == 2
        assert "got -2" in err
        assert out == ""


def test_sweep_delta_small_sizes_on_every_spread(capsys):
    # seeds 1, 6 and 8 each draw a trial whose vertex spread is 0, which
    # once asked for 4*1-3 = 1 vertex at size 1 and -3 at size 0
    for seed in ("1", "6", "8"):
        code, out, _ = run(capsys, "sweep", "--suite", "delta", "--sizes", "0,1",
                           "--trials", "3", "--seed", seed, "--check")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 6
        assert rows[:3] == [f"delta-0-{t},0,,0,0,true,0" for t in range(3)]
        assert rows[3:] == [f"delta-1-{t},1,,1,1,true,1" for t in range(3)]


def test_a_delta_sweep_row_asks_for_no_trace(monkeypatch, capsys):
    # a sweep row reads no probe event, so the solver collects none;
    # solve still passes a sink, for its '# log:' lines and --trace file
    traces = []

    def recorded(g, **kwargs):
        traces.append(kwargs["trace"])
        return find_rainbow_matching_delta(g, **kwargs)

    monkeypatch.setattr(cli, "find_rainbow_matching_delta", recorded)
    code, out, _ = run(capsys, "sweep", "--suite", "delta", "--sizes", "3,5",
                       "--trials", "2", "--check")
    assert code == 0 and len(out.splitlines()) == 5
    assert traces == [None] * 4
    solved = cli._solve("delta", random_proper_graph(9, 3, 1), None, False)
    assert traces[-1] is not None and solved.events


def test_cycle_free_and_k_are_exclusive(tmp_path, capsys):
    inst = tmp_path / "sq.txt"
    cert = tmp_path / "t.txt"
    run(capsys, "gen", "--kind", "cyclic", "--n", "5", "--out", str(inst))
    cert.write_text("cell 1 2 2\n")
    for argv in (["transversal", "--input", str(inst)],
                 ["verify", "--input", str(inst), "--certificate", str(cert)]):
        for k in ("5", "0"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--cycle-free", "--k", k])
            assert exc.value.code == 2
            assert "not allowed with argument" in capsys.readouterr().err


def test_verify_negative_k_exit_code(tmp_path, capsys):
    # a 1-cycle: invalid at every positive cutoff, valid with no check
    inst = tmp_path / "sq.txt"
    cert = tmp_path / "t.txt"
    run(capsys, "gen", "--kind", "cyclic", "--n", "5", "--out", str(inst))
    cert.write_text("cell 1 1 1\n")
    base = ["verify", "--input", str(inst), "--certificate", str(cert), "--k"]
    code, out, err = run(capsys, *base, "-4")
    assert code == 2
    assert out == "" and "--k must be non-negative, got -4" in err
    code, out, _ = run(capsys, *base, "0")
    assert code == 0 and out.strip() == "valid"
    code, out, _ = run(capsys, *base, "1")
    assert code == 3 and out.startswith("invalid: cycle of length 1")


def test_solve_trace_works_for_every_algo(tmp_path, capsys):
    inst = tmp_path / "g.txt"
    trace = tmp_path / "trace.jsonl"
    run(capsys, "gen", "--kind", "graph", "--n", "9", "--target", "3",
        "--seed", "1", "--out", str(inst))
    # delta: one event per '# log:' line, and each event renders as its line
    code, out, _ = run(capsys, "solve", "--algo", "delta", "--input", str(inst),
                       "--trace", str(trace))
    assert code == 0
    logs = [line[len("# log: "):] for line in out.splitlines() if line.startswith("# log: ")]
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert logs and [cli._log_line(event) for event in events] == logs
    # the oracle emits no events
    code, _, _ = run(capsys, "solve", "--algo", "oracle", "--input", str(inst),
                     "--trace", str(trace))
    assert code == 0
    assert trace.read_text() == ""
    # a missing input fails before the trace file is opened
    trace.unlink()
    for algo in ("delta", "layered", "oracle"):
        code, out, err = run(capsys, "solve", "--algo", algo, "--input",
                             str(tmp_path / "missing.txt"), "--trace", str(trace))
        assert code == 1
        assert out == "" and "error:" in err
        assert not trace.exists()


def test_text_headers_state_the_json_payload(tmp_path, capsys):
    # after the title, each text header line is 'key: <JSON value>' pairs
    # of the same run's payload, then one 'log: ' line per payload log entry
    graph = tmp_path / "g.txt"
    run(capsys, "gen", "--kind", "graph", "--n", "30", "--target", "7",
        "--seed", "3", "--out", str(graph))
    pair = tmp_path / "pair.txt"
    run(capsys, "gen", "--kind", "k4pair", "--out", str(pair))
    square = tmp_path / "sq.txt"
    run(capsys, "gen", "--kind", "square", "--n", "11", "--seed", "4", "--out", str(square))
    solve_keys = ["vertices", "delta", "size", "bound", "valid"]
    transversal_keys = ["order", "k", "size", "bound", "cycles", "paths", "valid"]
    runs = [
        ("solve --algo delta", ["solve", "--algo", "delta", "--input", str(graph)], solve_keys),
        ("solve --algo layered", ["solve", "--algo", "layered", "--input", str(pair)], solve_keys),
        ("solve --algo oracle", ["solve", "--algo", "oracle", "--input", str(pair)], solve_keys),
        ("transversal --k 3", ["transversal", "--input", str(square), "--k", "3"], transversal_keys),
        ("transversal --cycle-free", ["transversal", "--input", str(square), "--cycle-free"],
         transversal_keys),
    ]
    for title, argv, keys in runs:
        code, text, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        first, *header = [line[2:] for line in text.splitlines() if line.startswith("# ")]
        assert first == title
        logs = [line[len("log: "):] for line in header if line.startswith("log: ")]
        assert logs == payload.get("log", [])
        assert bool(logs) == (title == "solve --algo delta")
        stated = []
        for line in header[:len(header) - len(logs)]:
            line_keys = re.findall(r"(?:^| )([a-z_]+): ", line)
            assert line == " ".join(f"{key}: {json.dumps(payload[key])}" for key in line_keys)
            stated += line_keys
        assert stated == keys


def test_sweep_shortcycle_k_below_two_exit_code(tmp_path, capsys):
    out_file = tmp_path / "s.csv"
    code, out, err = run(capsys, "sweep", "--suite", "shortcycle", "--sizes", "9",
                         "--trials", "1", "--k", "1", "--out", str(out_file))
    assert code == 2
    assert "--k must be at least 2 for the shortcycle suite, got 1" in err
    assert out == ""
    assert not out_file.exists()


def test_cli_outputs_are_pinned(tmp_path, capsys):
    # one digest over every solving command's bytes: exit codes, stdout,
    # stderr and written files, for each solver, format and sweep suite
    from rainbowmatch import format_graph, random_square, to_bipartite_factorization

    digest = hashlib.sha256()

    def feed(*argv, files=()):
        code, out, err = run(capsys, *argv)
        label = " ".join(argv).replace(str(tmp_path), "")
        digest.update(f"{label} -> {code}\n{out}\n{err}\n".encode())
        for path in files:
            digest.update(path.read_bytes())

    sweeps = [("delta", "1..6", []), ("layered", "4..9", []),
              ("shortcycle", "5..12", ["--k", "3"]), ("cyclefree", "0..3,7,12", [])]
    for suite, sizes, extra in sweeps:
        feed("sweep", "--suite", suite, "--sizes", sizes, "--trials", "2",
             "--seed", "17", "--check", *extra)
    graph = tmp_path / "g.txt"
    run(capsys, "gen", "--kind", "graph", "--n", "30", "--target", "7",
        "--seed", "3", "--out", str(graph))
    bipartite = tmp_path / "b.txt"
    bipartite.write_text(format_graph(to_bipartite_factorization(random_square(10, seed=3))))
    trace = tmp_path / "trace.jsonl"
    for algo, inst in (("delta", graph), ("layered", bipartite)):
        for fmt in ("text", "json"):
            feed("solve", "--algo", algo, "--input", str(inst), "--format", fmt, "--check")
    feed("solve", "--algo", "layered", "--input", str(bipartite), "--trace", str(trace),
         files=[trace])
    pair = tmp_path / "pair.txt"
    run(capsys, "gen", "--kind", "k4pair", "--out", str(pair))
    feed("solve", "--algo", "oracle", "--input", str(pair))
    square = tmp_path / "sq.txt"
    run(capsys, "gen", "--kind", "square", "--n", "11", "--seed", "4", "--out", str(square))
    for mode in (["--k", "3"], ["--cycle-free"]):
        for fmt in ("text", "json"):
            feed("transversal", "--input", str(square), *mode, "--format", fmt, "--check")
    assert digest.hexdigest() == (
        "14d798e6eff546c1f9346d39d674df21d39ee66be31f9f65b8fcd8376d29de60"
    )


def _certificate(word, items):
    return "".join(f"{word} {a} {b} {c}\n" for a, b, c in items).encode()


_GRAPH = random_proper_graph(9, 3, 1)
_SQUARE = random_square(4, seed=3)
# the valid files the mutations start from
FUZZ_BASES = {
    "graph": format_graph(_GRAPH).encode(),
    "edges": _certificate("edge", find_rainbow_matching_delta(_GRAPH)),
    "square": serialize_latin(_SQUARE).encode(),
    "cells": _certificate("cell", build_short_cycle_free_transversal(_SQUARE, 2)),
}
# the commands reading each file; {graph}, {edges}, ... name the files
FUZZ_COMMANDS = {
    "graph": [["solve", "--algo", "oracle", "--input", "{graph}"],
              ["solve", "--algo", "delta", "--input", "{graph}"],
              ["verify", "--input", "{graph}", "--certificate", "{edges}"]],
    "edges": [["verify", "--input", "{graph}", "--certificate", "{edges}"]],
    "square": [["transversal", "--input", "{square}", "--k", "2"],
               ["verify", "--input", "{square}", "--certificate", "{cells}", "--k", "2"]],
    "cells": [["verify", "--input", "{square}", "--certificate", "{cells}", "--k", "2"]],
}


@st.composite
def mutated_files(draw):
    """One base file with one byte replaced, inserted or deleted."""
    name = draw(st.sampled_from(sorted(FUZZ_BASES)))
    data = FUZZ_BASES[name]
    kind = draw(st.sampled_from(["replace", "insert", "delete"]))
    at = draw(st.integers(0, len(data) - (kind != "insert")))
    byte = bytes([draw(st.sampled_from(b"0123456789 -+_#\n") | st.integers(0, 255))])
    if kind == "replace":
        return name, data[:at] + byte + data[at + 1:]
    if kind == "insert":
        return name, data[:at] + byte + data[at:]
    return name, data[:at] + data[at + 1:]


@settings(max_examples=150, deadline=None)
@given(mutated_files())
def test_mutated_files_exit_cleanly(tmp_path_factory, case):
    name, data = case
    folder = tmp_path_factory.mktemp("fuzz")
    paths = {key: folder / key for key in FUZZ_BASES}
    for key, path in paths.items():
        path.write_bytes(data if key == name else FUZZ_BASES[key])
    for argv in FUZZ_COMMANDS[name]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([arg.format(**paths) for arg in argv])
        assert code in (0, 1, 2, 3), (argv, data)
