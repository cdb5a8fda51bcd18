"""The README's command-line examples, run against the CLI.

report, n3 and the shown part of the sweep CSV must match byte for byte.
verify is matched by its `PASS <label>` prefixes and mc by its analytic and
rng_algorithm lines: eigenvalue noise and multinomial counts depend on the
platform and the numpy version, so those digits are not compared.
"""

import re
import shlex
from pathlib import Path

from cvdisc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def examples():
    """{command: lines shown after `$ command`} over the README's text blocks."""
    shown = {}
    for block in re.findall(r"```text\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        command = None
        for line in block.splitlines():
            if line.startswith("$ "):
                command = line[2:]
                shown[command] = []
            elif command is not None:
                shown[command].append(line)
    return shown


def run_example(capsys, prefix):
    """Run the one README command that starts with prefix; return its shown
    lines, exit code and stdout."""
    matches = [(cmd, lines) for cmd, lines in examples().items() if cmd.startswith(prefix)]
    assert len(matches) == 1, f"README has {len(matches)} examples of {prefix!r}"
    command, lines = matches[0]
    argv = shlex.split(command)
    assert argv[0] == "cvdisc"
    code = main(argv[1:])
    return lines, code, capsys.readouterr().out


def test_report_example(capsys):
    lines, code, out = run_example(capsys, "cvdisc report ")
    assert code == 0
    assert out == "\n".join(lines) + "\n"


def test_n3_example(capsys):
    lines, code, out = run_example(capsys, "cvdisc n3 ")
    assert code == 0
    assert out == "\n".join(lines) + "\n"


def test_sweep_example_head(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    lines, code, out = run_example(capsys, "cvdisc sweep ")
    assert code == 0
    assert lines == [] and out == ""
    head = examples()["head -2 sweep.csv"]
    rows = (tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(head) == 2
    assert rows[0] == head[0]
    assert head[1].endswith(",...")
    assert rows[1].startswith(head[1][:-len("...")])


def test_verify_example_labels(capsys):
    lines, code, out = run_example(capsys, "cvdisc verify ")
    assert code == 0
    got = out.splitlines()
    shown = [line for line in lines if line != "..."]
    assert shown and len(got) >= len(shown)
    assert all(line.startswith("PASS ") for line in got)
    for want, have in zip(shown, got):
        assert have.split(":")[0] == want.split(":")[0]


def test_mc_example_summary(capsys):
    lines, code, out = run_example(capsys, "cvdisc mc ")
    assert code == 0
    wanted = [line for line in lines if line.startswith(("analytic_", "rng_algorithm"))]
    assert len(wanted) == 3
    got = out.splitlines()
    for line in wanted:
        assert line in got
