"""Command-line interface: output contracts, exit codes, determinism."""

import csv
import subprocess
import sys

import pytest

from cvdisc import DomainError, cli, discrim, ensemble
from cvdisc.analytic3 import KINK_PERIOD
from cvdisc.cli import CSV_HEADER, STEPS_CAP, SweepRequest, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    values = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


def count_calls(monkeypatch, original):
    """Wrap every cvdisc module attribute bound to the function original and
    return the list that collects one entry per call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "cvdisc" or name.startswith("cvdisc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


# --- report -----------------------------------------------------------------


def test_report_frozen_point(capsys):
    code, out, _ = run(capsys, "report", "--n", "3", "--alpha2", "0.8")
    assert code == 0
    values = parse_report(out)
    assert values["p_s"] == "0.435042320323"
    assert values["p_c_med"] == "0.946620388398"
    assert values["p_c_ir"] == "0.807333858219"
    assert values["gain"] == "0.179733554"
    assert values["failure_dim"] == "2"
    assert values["full_separation"] == "False"


def test_report_vacuum(capsys):
    code, out, _ = run(capsys, "report", "--n", "3", "--alpha2", "0")
    assert code == 0
    values = parse_report(out)
    assert values["p_s"] == "0"
    assert values["p_c_med"] == "0.333333333333"
    assert values["fidelity"] == "1"
    assert values["infidelity"] == "0"
    # b = c = e_0 spans one dimension.
    assert values["failure_dim"] == "1"


def test_report_full_separation(capsys):
    code, out, _ = run(capsys, "report", "--n", "3", "--alpha2", "45")
    assert code == 0
    values = parse_report(out)
    assert values["full_separation"] == "True"
    assert values["p_c_ir"] == "1"
    assert values["fidelity"] == "nan"


def test_report_larger_alphabet(capsys):
    code, out, _ = run(capsys, "report", "--n", "7", "--alpha2", "1.0")
    assert code == 0
    assert "p_c_ir" in out


def test_report_evaluates_coefficients_once(capsys, monkeypatch):
    # ir_report, info_report and failure_dim each read the profile of one
    # spec object, which evaluates the coefficients once.
    calls = count_calls(monkeypatch, ensemble.coefficients)
    folds = count_calls(monkeypatch, ensemble._fold)
    code, _, _ = run(capsys, "report", "--n", "5", "--alpha2", "1.5")
    assert code == 0
    assert len({id(spec) for spec, in calls}) == 1
    assert len(folds) == 1


@pytest.mark.parametrize("argv", [("report", "--n", "3"), ("n3",)])
def test_negative_zero_alpha_prints_as_zero(capsys, argv):
    code, out, _ = run(capsys, *argv, "--alpha2", "-0")
    assert code == 0
    assert parse_report(out)["alpha_sq"] == "0"
    assert run(capsys, *argv, "--alpha2", "0") == (0, out, "")


@pytest.mark.parametrize("argv", [
    ("report", "--n", "1", "--alpha2", "1.0"),
    ("report", "--n", "3", "--alpha2", "-1"),
])
def test_report_domain_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error" in err


# --- sweep ------------------------------------------------------------------


def test_sweep_csv_contract(capsys, tmp_path):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--n", "3", "--alpha2-min", "1.0",
                     "--alpha2-max", "2.0", "--steps", "5", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "1.000000000000e+00"
    assert first[1] == "5.610435474298e-01"
    assert first[-1] == "2"


def test_sweep_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "sweep", "--n", "4", "--alpha2-min", "0.2",
                         "--alpha2-max", "3.0", "--steps", "40",
                         "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_evaluates_coefficients_once_per_point(capsys, monkeypatch, tmp_path):
    # The whole grid goes through one coefficient_grid call, which evaluates
    # each point once; no point takes the one-point coefficients path.
    grid_calls = count_calls(monkeypatch, ensemble.coefficient_grid)
    point_calls = count_calls(monkeypatch, ensemble.coefficients)
    code, _, _ = run(capsys, "sweep", "--n", "4", "--alpha2-min", "0.2",
                     "--alpha2-max", "3.0", "--steps", "7",
                     "--out", str(tmp_path / "once.csv"))
    assert code == 0
    assert len(grid_calls) == 1
    assert grid_calls[0][1].shape == (7,)
    assert len(point_calls) == 0


def test_sweep_failure_dim_drops_at_kink(capsys, tmp_path):
    out_file = tmp_path / "kink.csv"
    code, _, _ = run(capsys, "sweep", "--n", "3",
                     "--alpha2-min", repr(KINK_PERIOD),
                     "--alpha2-max", repr(KINK_PERIOD + 0.02),
                     "--steps", "2", "--out", str(out_file))
    assert code == 0
    rows = list(csv.DictReader(out_file.open()))
    assert [r["failure_dim"] for r in rows] == ["1", "2"]


def test_sweep_two_states_never_gain(capsys, tmp_path):
    out_file = tmp_path / "n2.csv"
    code, _, _ = run(capsys, "sweep", "--n", "2", "--alpha2-min", "0.1",
                     "--alpha2-max", "3.0", "--steps", "30",
                     "--out", str(out_file))
    assert code == 0
    for row in csv.DictReader(out_file.open()):
        assert abs(float(row["gain"])) < 1e-12


def test_sweep_io_error_exit_3(capsys, tmp_path):
    target = tmp_path / "missing" / "out.csv"
    code, _, err = run(capsys, "sweep", "--n", "3", "--alpha2-min", "0.5",
                       "--alpha2-max", "1.0", "--steps", "2",
                       "--out", str(target))
    assert code == 3
    assert "i/o error" in err
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ("sweep", "--n", "3", "--alpha2-min", "2.0", "--alpha2-max", "1.0",
     "--steps", "3", "--out", "x.csv"),
    ("sweep", "--n", "3", "--alpha2-min", "0.0", "--alpha2-max", "1.0",
     "--steps", "0", "--out", "x.csv"),
    # Beyond STEPS_CAP: rejected before the grid is allocated.
    ("sweep", "--n", "3", "--alpha2-min", "0.0", "--alpha2-max", "1.0",
     "--steps", "10000000000", "--out", "x.csv"),
    # Bounds outside EnsembleSpec's domain: rejected before any point is
    # computed, so no numpy warning reaches stderr.
    ("sweep", "--n", "3", "--alpha2-min", "0", "--alpha2-max", "inf",
     "--steps", "3", "--out", "x.csv"),
    ("sweep", "--n", "3", "--alpha2-min", "0", "--alpha2-max", "2e8",
     "--steps", "5", "--out", "x.csv"),
])
def test_sweep_bad_grid_exit_2(capsys, recwarn, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "RuntimeWarning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_sweep_steps_cap_is_inclusive():
    assert SweepRequest(3, 0.0, 1.0, STEPS_CAP).steps == STEPS_CAP
    with pytest.raises(DomainError):
        SweepRequest(3, 0.0, 1.0, STEPS_CAP + 1)


# --- mc ---------------------------------------------------------------------


def test_mc_reports_table_and_stream(capsys):
    code, out, _ = run(capsys, "mc", "--n", "3", "--alpha2", "1.0",
                       "--shots", "20000", "--seed", "42")
    assert code == 0
    assert "rng_algorithm                = numpy-pcg64-multinomial-v2\n" in out
    assert "max_abs_z" in out
    values = parse_report(out[out.index("empirical_p_s"):])
    # %.12g of 0.561043547430 drops the trailing zero.
    assert values["analytic_p_s"] == "0.56104354743"
    assert values["analytic_confidence_failure"] == "0.664797247539"


def test_mc_same_seed_same_stdout(capsys):
    argv = ("mc", "--n", "4", "--alpha2", "0.9", "--shots", "15000",
            "--seed", "77")
    code_a, out_a, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_mc_counts_csv(capsys, tmp_path):
    out_file = tmp_path / "counts.csv"
    code, _, _ = run(capsys, "mc", "--n", "3", "--alpha2", "1.0",
                     "--shots", "5000", "--seed", "1", "--out", str(out_file))
    assert code == 0
    rows = list(csv.reader(out_file.open()))
    assert rows[0] == ["prep", "outcome", "branch", "count"]
    assert len(rows) == 1 + 3 * 3 * 2
    total = sum(int(r[3]) for r in rows[1:])
    assert total == 5000


def test_mc_statistical_flag_exit_4(capsys):
    # Each success cell has probability p_s/3 = 4.5e-6, below
    # 1/(36 * shots) = 1.4e-5, so a single hit in one lies beyond 6 sigma.
    # Seed 0 is the first seed from 0 up whose run has a success hit.
    code, out, err = run(capsys, "mc", "--n", "3", "--alpha2", "0.003",
                         "--shots", "2000", "--seed", "0")
    assert code == 4
    assert "6 sigma" in err
    values = parse_report(out[out.index("empirical_p_s"):])
    assert values["empirical_p_s"] == "0.0005"
    assert float(values["analytic_p_s"]) < 3.0 / (36 * 2000)
    assert float(values["max_abs_z"]) > 6.0


def test_mc_reuses_the_sampled_joint(capsys, monkeypatch):
    # simulate builds the joint from the spec's coefficient profile and
    # returns it; ir_report, for the analytic summary lines, reads the same
    # profile, so the point costs one coefficient evaluation.
    folds = count_calls(monkeypatch, ensemble._fold)
    joint_calls = count_calls(monkeypatch, discrim.joint_distribution)
    code, _, _ = run(capsys, "mc", "--n", "3", "--alpha2", "1.0",
                     "--shots", "1000", "--seed", "1")
    assert code == 0
    assert len(folds) == 1
    assert len(joint_calls) <= 1


def test_mc_full_separation(capsys):
    code, out, _ = run(capsys, "mc", "--n", "3", "--alpha2", "45",
                       "--shots", "500", "--seed", "5")
    assert code == 0
    values = parse_report(out[out.index("empirical_p_s"):])
    assert values["empirical_p_s"] == "1"
    assert values["empirical_confidence_failure"] == "nan"
    assert values["analytic_confidence_failure"] == "nan"


def test_mc_bad_shots_exit_2(capsys):
    code, _, err = run(capsys, "mc", "--n", "3", "--alpha2", "1.0",
                       "--shots", "0", "--seed", "1")
    assert code == 2
    assert "shots" in err


# --- n3 ---------------------------------------------------------------------


def test_n3_vacuum(capsys):
    code, out, _ = run(capsys, "n3", "--alpha2", "0")
    assert code == 0
    values = parse_report(out)
    assert values["root_1"] == "3"
    assert values["root_2"] == "0"
    assert values["root_3"] == "0"
    assert values["selected_branch"] == "3"
    assert values["p_s"] == "0"
    assert values["kink_below"] == "none"
    assert values["kink_above"] == "2.41839915231"


def test_n3_past_first_kink(capsys):
    code, out, _ = run(capsys, "n3", "--alpha2", "2.4184")
    assert code == 0
    values = parse_report(out)
    assert values["selected_branch"] == "1"
    assert values["kink_below"] == "2.41839915231"
    assert values["kink_above"] == "4.83679830462"


# --- verify -----------------------------------------------------------------


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--alpha2", "2.0")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert lines
    assert all(ln.startswith("PASS") for ln in lines)


def test_verify_multiple_points(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--alpha2", "0.5,1.5")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 8
    assert all(ln.startswith("PASS ") for ln in lines)
    for tag in ("(n=3, alpha_sq=0.5)", "(n=3, alpha_sq=1.5)"):
        assert sum(tag in ln for ln in lines) == 4


def test_verify_evaluates_coefficients_once_per_point(capsys, monkeypatch):
    # Both workspaces, the Fock amplitudes and ir_report read the one
    # profile of each point's spec.
    folds = count_calls(monkeypatch, ensemble._fold)
    code, _, _ = run(capsys, "verify", "--n", "3", "--alpha2", "1,2")
    assert code == 0
    assert len(folds) == 2


def test_verify_larger_alphabet(capsys):
    code, out, _ = run(capsys, "verify", "--n", "7", "--alpha2", "1.0")
    assert code == 0
    assert all(ln.startswith("PASS") for ln in out.splitlines() if ln)


@pytest.mark.parametrize("argv", [
    ("--n", "16", "--alpha2", "0.5"),
    ("--n", "8", "--alpha2", "1"),
    ("--n", "3", "--alpha2", "1", "--tail-eps", "1e-9"),
])
def test_verify_passes_where_coefficients_or_rows_are_small(capsys, argv):
    # (16, 0.5) has c_15^2 ~ 1e-17; (8, 1) truncates phi_7 more than the
    # global tail; --tail-eps 1e-9 truncates every row more than 1e-10.
    code, out, err = run(capsys, "verify", *argv)
    assert code == 0, err
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 4
    assert all(ln.startswith("PASS") for ln in lines)


def test_verify_vacuum_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--n", "3", "--alpha2", "0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("--n", "3", "--alpha2", "1,-1"),
    ("--n", "3", "--alpha2", "1", "--tail-eps", "0.5"),
    ("--n", "3", "--alpha2", "1,0"),      # the vacuum alphabet
    ("--n", "3", "--alpha2", "1,16"),     # an empty failure branch
])
def test_verify_usage_errors_precede_results(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_bad_list_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "--n", "3", "--alpha2", "1.0,oops")
    assert code == 2


# --- usage ------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    (),
    ("unknown",),
    ("report", "--n", "3"),
    ("report", "--alpha2", "1.0"),
    ("sweep", "--n", "3", "--alpha2-min", "x", "--alpha2-max", "1",
     "--steps", "2", "--out", "y.csv"),
    ("report", "--n", "3", "--alpha2", "1.0", "--deg-tol", "1e-6"),
])
def test_usage_errors_exit_2(capsys, argv):
    assert run(capsys, *argv)[0] == 2


# --- module entry point -------------------------------------------------------


def test_python_m_matches_in_process(capsys):
    code, out, _ = run(capsys, "report", "--n", "3", "--alpha2", "1.0")
    proc = subprocess.run([sys.executable, "-m", "cvdisc", "report",
                           "--n", "3", "--alpha2", "1.0"],
                          capture_output=True, text=True)
    assert code == proc.returncode == 0
    assert proc.stdout == out


def test_cached_parser_carries_no_state(capsys, monkeypatch):
    # Help is wrapped to the terminal width, read when it is formatted; fix it
    # for both this process and the child interpreters.
    monkeypatch.setenv("COLUMNS", "80")
    bad = ("sweep", "--alpha2-min", "x", "--n", "3", "--alpha2-max", "1",
           "--steps", "2", "--out", "y.csv")
    sequence = [bad, ("report", "--n", "3", "--alpha2", "1.0"),
                ("verify", "--n", "4", "--alpha2", "2.0"),
                ("--help",), ("verify", "--help"), bad]
    fresh = {}
    for argv in sequence:
        if argv not in fresh:
            proc = subprocess.run([sys.executable, "-m", "cvdisc", *argv],
                                  capture_output=True, text=True)
            fresh[argv] = (proc.returncode, proc.stdout, proc.stderr)
        assert run(capsys, *argv) == fresh[argv]
    assert [fresh[argv][0] for argv in sequence] == [2, 0, 0, 0, 0, 2]
    assert cli._build_parser.cache_info().misses == 1
    assert cli._build_parser() is cli._build_parser()
