"""The README's Python example runs against the installed package, and
its sample solve output is what the command line prints."""

import re
from pathlib import Path

from rainbowmatch.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_solve_sample_matches_the_cli(tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    assert "rainbowmatch gen --kind graph --n 9 --target 3 --seed 1 --out g.txt" in text
    sample = re.search(r"^```\n(# solve --algo delta\n.*?)^```", text, re.M | re.S).group(1)
    graph = tmp_path / "g.txt"
    assert main(["gen", "--kind", "graph", "--n", "9", "--target", "3",
                 "--seed", "1", "--out", str(graph)]) == 0
    assert main(["solve", "--algo", "delta", "--input", str(graph)]) == 0
    printed = iter(capsys.readouterr().out.splitlines())
    # "..." elides lines; every other sample line appears, in order
    # ("in" on the iterator consumes it up to the match)
    for line in sample.splitlines():
        if line != "...":
            assert line in printed, line
