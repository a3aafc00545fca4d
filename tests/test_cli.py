"""End-to-end command-line behavior, driven through main()."""

import json

import pytest

from rainbowmatch.cli import main, parse_sizes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_sizes_forms():
    assert parse_sizes("2..6") == [2, 3, 4, 5, 6]
    assert parse_sizes("49,64,100") == [49, 64, 100]
    assert parse_sizes("1..3,10") == [1, 2, 3, 10]


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


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--algo", "delta",
                       "--input", str(tmp_path / "nope.txt"))
    assert code == 1


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
