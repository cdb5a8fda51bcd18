"""Command-line interface: output contracts, exit codes, determinism."""

import csv
import dataclasses
import errno
import math
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from cvdisc import CertificationFailure, DomainError, cli, discrim, ensemble, montecarlo, oracle
from cvdisc.analytic3 import KINK_PERIOD
from cvdisc.cli import CSV_HEADER, STEPS_CAP, main


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


OUT_ARGVS = {
    "sweep": ("sweep", "--n", "3", "--alpha2-min", "0.5", "--alpha2-max", "1.0", "--steps", "2"),
    "mc": ("mc", "--n", "3", "--alpha2", "1.0", "--shots", "1000", "--seed", "1"),
}


@pytest.mark.parametrize("command", sorted(OUT_ARGVS))
@pytest.mark.parametrize("out, code", [("missing/out.csv", errno.ENOENT), ("adir", errno.EISDIR)])
def test_io_error_names_the_output_path(capsys, tmp_path, monkeypatch, command, out, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    exit_code, _, err = run(capsys, *OUT_ARGVS[command], "--out", out)
    assert (exit_code, err) == (3, f"i/o error: [Errno {code}] {os.strerror(code)}: '{out}'\n")
    assert [p.name for p in tmp_path.rglob("*")] == ["adir"]


@pytest.mark.parametrize("command", sorted(OUT_ARGVS))
def test_out_writes_what_the_path_names(capsys, tmp_path, monkeypatch, command):
    # As a shell's > would: a new file gets 0o666 less the umask, a file
    # keeps its mode, a symlink keeps naming its target, and a FIFO stays a
    # FIFO whose reader gets the bytes. The read end is opened non-blocking
    # first, so a writer that replaced the FIFO fails here, not hangs.
    monkeypatch.chdir(tmp_path)
    argv = OUT_ARGVS[command]
    mask = os.umask(0o022)
    try:
        assert run(capsys, *argv, "--out", "new.csv")[0] == 0
        expected = (tmp_path / "new.csv").read_bytes()
        assert stat.S_IMODE(os.stat("new.csv").st_mode) == 0o644
        (tmp_path / "kept.csv").write_text("old\n")
        os.chmod("kept.csv", 0o640)
        assert run(capsys, *argv, "--out", "kept.csv")[0] == 0
        assert stat.S_IMODE(os.stat("kept.csv").st_mode) == 0o640
        assert (tmp_path / "kept.csv").read_bytes() == expected
        os.symlink("kept.csv", "link")
        (tmp_path / "kept.csv").write_text("old\n")
        assert run(capsys, *argv, "--out", "link")[0] == 0
        assert os.readlink("link") == "kept.csv"
        assert (tmp_path / "kept.csv").read_bytes() == expected
        os.mkfifo("fifo")
        reader = os.open("fifo", os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run(capsys, *argv, "--out", "fifo")[0] == 0
            assert stat.S_ISFIFO(os.stat("fifo").st_mode)
            assert os.read(reader, 1 << 16) == expected
        finally:
            os.close(reader)
        # A path that a shell's > refuses creates nothing.
        code, _, err = run(capsys, *argv, "--out", "missing/")
        assert (code, err) == (3, f"i/o error: [Errno {errno.ENOTDIR}] "
                                  f"{os.strerror(errno.ENOTDIR)}: 'missing/'\n")
    finally:
        os.umask(mask)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "kept.csv", "link", "new.csv"]


def test_closed_stdout_exits_141_quietly():
    # A reader that stops early (`cvdisc mc ... | head -1`) closes the pipe
    # mid-table: the exit code is 128 + SIGPIPE, as a shell reports, and
    # stderr stays empty.
    argv = ("mc", "--n", "64", "--alpha2", "3", "--shots", "1000", "--seed", "1")
    with subprocess.Popen([sys.executable, "-m", "cvdisc", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().split()[:3] == [b"prep", b"outcome", b"branch"]
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(), err) == (141, b"")


def test_sweep_onto_a_directory_leaves_no_temp_file(capsys, tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    code, out, err = run(capsys, "sweep", "--n", "3", "--alpha2-min", "0.5",
                         "--alpha2-max", "1.0", "--steps", "2", "--out", str(target))
    assert (code, out) == (3, "")
    assert err.startswith("i/o error")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert not any(target.iterdir())


def test_sweep_failing_mid_grid_leaves_no_file(capsys, monkeypatch, tmp_path):
    # The grid raises after the header and its first block were written to
    # the temporary file.
    grid = ensemble.coefficient_grid

    def failing_grid(n, alpha_sq):
        yield next(grid(n, alpha_sq))
        raise RuntimeError("grid block failed")

    monkeypatch.setattr(cli, "coefficient_grid", failing_grid)
    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError, match="grid block failed"):
        main(["sweep", "--n", "3", "--alpha2-min", "0.5", "--alpha2-max", "1.0",
              "--steps", "10", "--out", str(target)])
    assert list(tmp_path.iterdir()) == []


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
    assert cli._sweep_grid(3, 0.0, 1.0, STEPS_CAP).size == STEPS_CAP
    with pytest.raises(DomainError):
        cli._sweep_grid(3, 0.0, 1.0, STEPS_CAP + 1)


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


def test_mc_summary_block(capsys):
    # The six summary lines close stdout, in this order, each name padded to
    # 29 columns, each value the record's field as the report prints it.
    shots = 20000
    code, out, _ = run(capsys, "mc", "--n", "3", "--alpha2", "1.0",
                       "--shots", str(shots), "--seed", "42")
    assert code == 0
    spec = ensemble.EnsembleSpec(3, 1.0)
    result = montecarlo.simulate(montecarlo.MCConfig(spec=spec, shots=shots, seed=42))
    rep = discrim.ir_report(spec)
    prob = result.joint.columns() / 3
    live = prob > 0.0
    assert not result.counts[~live].any()
    p = prob[live]
    z = (result.counts[live] / shots - p) / np.sqrt(p * (1.0 - p) / shots)
    expected = [("empirical_p_s", result.empirical_p_s), ("analytic_p_s", rep.p_s),
                ("empirical_confidence_failure", result.empirical_confidence_failure),
                ("analytic_confidence_failure", rep.confidence_failure),
                ("max_abs_z", float(np.abs(z).max())),
                ("rng_algorithm", result.rng_algorithm)]
    assert out.splitlines()[-6:] == [name.ljust(29) + "= " + cli._g(value)
                                     for name, value in expected]


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


def test_mc_statistical_flag_exit_4(capsys, monkeypatch):
    # Counts drawn from the true joint are tested against a joint whose
    # shift[1], the failure cell (outcome k+1 | prep k) of every k, is 1.5
    # times too large; at N=8 and 1e6 shots each such cell holds ~1.4e4
    # counts, ~50 sigma below its claim.
    simulate = montecarlo.simulate

    def misstated(config):
        result = simulate(config)
        shift = result.joint.shift.copy()
        shift[1] *= 1.5
        return dataclasses.replace(result, joint=dataclasses.replace(result.joint,
                                                                     shift=shift))

    monkeypatch.setattr(montecarlo, "simulate", misstated)
    code, out, err = run(capsys, "mc", "--n", "8", "--alpha2", "2",
                         "--shots", "1000000", "--seed", "1")
    assert code == 4
    assert err == "statistical flag: a cell deviates beyond 6 sigma\n"
    assert float(parse_report(out[out.index("empirical_p_s"):])["max_abs_z"]) > 30.0


def test_mc_rare_hit_is_not_flagged(capsys):
    # Each success cell has probability p_s/3 = 4.5e-6, so at 2000 shots it
    # expects 0.009 counts, and the one hit of seed 0 shows z ~ 10. A correct
    # sampler puts a count in one of the three cells with probability ~0.03:
    # no 6 sigma event, so the Poisson tail rule does not flag it.
    code, out, err = run(capsys, "mc", "--n", "3", "--alpha2", "0.003",
                         "--shots", "2000", "--seed", "0")
    assert (code, err) == (0, "")
    values = parse_report(out[out.index("empirical_p_s"):])
    assert values["empirical_p_s"] == "0.0005"
    assert float(values["analytic_p_s"]) < 3.0 / (36 * 2000)
    assert float(values["max_abs_z"]) > 6.0


def beyond_6_sigma_reference(count, expected, z):
    """The 6 sigma rule of cli._beyond_6_sigma for one cell, in Python
    floats: |z| > 6 from 100 expected counts up, else the Poisson Chernoff
    bound against the two-sided level."""
    if expected >= 100.0:
        return abs(z) > 6.0
    return poisson_tail_bound(count, expected) < cli._SIX_SIGMA


def poisson_tail_bound(count, expected):
    return math.exp(-expected) * (math.e * expected / max(count, 1)) ** count


@pytest.mark.parametrize("count,expected,z,flagged", [
    (1, 0.0115, 9.22, False),        # one count where 0.0115 are expected
    (1, 0.0, math.inf, True),        # a count in a cell of probability 0
    (0, 25.0, -5.0, True),           # no count where 25 are expected: e^-25
    (0, 19.0, -4.36, False),         # e^-19 = 5.6e-9 is above the level
    (30, 5.0, 11.18, True),
    (12, 5.0, 3.13, False),
    (160, 100.0, 6.0, False),        # from 100 expected counts up, z decides
    (161, 100.0, 6.1, True),
])
def test_mc_flag_rule(count, expected, z, flagged):
    assert beyond_6_sigma_reference(count, expected, z) is flagged
    assert cli._beyond_6_sigma(np.array([count]), np.array([expected]), np.array([z])) is flagged


def test_mc_array_flag_rule_decides_each_cell_as_the_scalar_rule():
    rng = np.random.default_rng(6)
    lam = 10.0 ** rng.uniform(-6.0, 4.0, 4000)
    count = rng.poisson(lam * rng.uniform(0.0, 3.0, lam.size))
    count = np.concatenate([count, [0, 1, 0]])
    lam = np.concatenate([lam, [0.0, 0.0, 150.0]])
    z = rng.uniform(-8.0, 8.0, lam.size)
    # numpy's exp and pow may differ from libm's in the last bits, so the
    # cells compared keep clear of the level.
    assert not [(c, e) for c, e in zip(count.tolist(), lam.tolist()) if e < 100.0
                and abs(poisson_tail_bound(c, e) - cli._SIX_SIGMA) <= 1e-12 * cli._SIX_SIGMA]
    decided = [cli._beyond_6_sigma(count[i:i + 1], lam[i:i + 1], z[i:i + 1])
               for i in range(lam.size)]
    assert decided == [beyond_6_sigma_reference(int(c), float(e), float(x))
                       for c, e, x in zip(count, lam, z)]
    assert 0 < sum(decided) < lam.size
    assert cli._beyond_6_sigma(count, lam, z) is True
    unflagged = ~np.array(decided)
    assert cli._beyond_6_sigma(count[unflagged], lam[unflagged], z[unflagged]) is False


def reference_mc_table(result):
    """The mc table as one Python step per cell from the dense joint blocks:
    the lines, the largest |z|, the flag and the counts CSV."""
    n, shots = result.joint.n_states, result.shots
    analytic = np.stack([result.joint.success.T, result.joint.failure.T], axis=-1) / n
    lines = ["prep outcome branch      count    empirical     analytic        z\n"]
    rows = ["prep,outcome,branch,count\n"]
    worst_z, flagged = 0.0, False
    for (k, kp, br), count in np.ndenumerate(result.counts):
        count = int(count)
        emp = count / shots
        prob = analytic[k, kp, br]
        sigma = math.sqrt(prob * (1.0 - prob) / shots)
        lam = prob * shots
        if sigma > 0.0:
            z = (emp - prob) / sigma
        elif prob > 0.0:
            z = (count - lam) / math.sqrt(lam * (1.0 - prob))
        elif emp == prob:
            z = 0.0
        else:
            z = math.inf
        worst_z = max(worst_z, abs(z))
        flagged = flagged or beyond_6_sigma_reference(count, lam, z)
        lines.append(f"{k:4d} {kp:7d} {'sf'[br]:>6s} {count:10d} {emp:.6e} {prob:.6e} {z:8.3f}\n")
        rows.append(f"{k},{kp},{'sf'[br]},{count}\n")
    return "".join(lines), worst_z, flagged, "".join(rows)


@pytest.mark.parametrize("n,alpha_sq,shots,seed", [
    (3, 1.0, 20000, 42), (4, 0.9, 15000, 77), (8, 2.0, 10 ** 6, 1),
    (3, 0.003, 2000, 0),           # the rare hit
    (3, 45.0, 500, 5),             # full separation
    (5, 1e-3, 10 ** 9, 3), (64, 20.0, 10 ** 9, 1), (200, 50.0, 10 ** 9, 2),
    (2, 5e-324, 10, 1),            # success cells of subnormal probability
])
def test_mc_table_is_the_per_cell_table(capsys, n, alpha_sq, shots, seed):
    # N = 200 spans two blocks of the table and of the counts CSV.
    result = montecarlo.simulate(montecarlo.MCConfig(ensemble.EnsembleSpec(n, alpha_sq),
                                                     shots, seed))
    worst_z, flagged = cli._mc_table(result)
    text, ref_worst, ref_flagged, counts_csv = reference_mc_table(result)
    assert capsys.readouterr().out == text
    assert (worst_z, flagged) == (ref_worst, ref_flagged)
    assert "".join(cli._count_rows(result.counts)) == counts_csv


def test_mc_subnormal_cells_have_finite_z(capsys):
    # The success cells have probability 5e-324, where sqrt(p(1 - p)/shots)
    # underflows to 0; their empty counts are consistent, so z is finite,
    # -sqrt(p * shots) on the count scale, and nothing is flagged.
    code, out, err = run(capsys, "mc", "--n", "2", "--alpha2", "5e-324",
                         "--shots", "10", "--seed", "1")
    assert (code, err) == (0, "")
    assert "inf" not in out
    rows = [line.split() for line in out.splitlines()[1:9]]
    assert [row[6] for row in rows if row[2] == "s" and row[5] != "0.000000e+00"] == ["-0.000"] * 2
    assert parse_report(out[out.index("empirical_p_s"):])["max_abs_z"] == "1.09544511501"


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


def test_n3_neighbours_at_a_kink(capsys):
    # 3 * KINK_PERIOD rounds to 7.255197456936871, above this alpha^2.
    code, out, _ = run(capsys, "n3", "--alpha2", "7.2551974569368705")
    assert code == 0
    values = parse_report(out)
    assert values["selected_branch"] == "2"
    assert values["kink_below"] == "4.83679830462"
    assert values["kink_above"] == "7.25519745694"


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


def test_verify_builds_each_measurement_once_per_point(capsys, monkeypatch):
    # The phi and Fock workspaces of a point share one memoised measurement:
    # the Kraus diagonals are formed once per point, not once per basis.
    diagonals = count_calls(monkeypatch, oracle._kraus_diagonals)
    code, _, _ = run(capsys, "verify", "--n", "4", "--alpha2", "1.0,2.0")
    assert code == 0
    assert len(diagonals) == 2


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


def test_verify_at_an_empty_success_branch(capsys):
    # c_min^2 underflows to exactly 0, so the success branch has no trace
    # mass and confidence_success takes the closed form's limit 1.
    for n, alpha_sq in (("3", "1e-170"), ("16", "1e-30"), ("16", "1e-170"), ("3", "1e-300")):
        code, out, err = run(capsys, "verify", "--n", n, "--alpha2", alpha_sq)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 4 and all(ln.startswith("PASS ") for ln in lines)
    brute = oracle.brute_force_probabilities(
        oracle.build_workspace(ensemble.EnsembleSpec(16, 1e-30)))
    assert (brute.p_s, brute.confidence_success) == (0.0, 1.0)


def test_verify_vacuum_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--n", "3", "--alpha2", "0")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("--n", "3", "--alpha2", "1,-1"),
    ("--n", "3", "--alpha2", "1", "--tail-eps", "0.5"),
    ("--n", "3", "--alpha2", "1,0"),      # the vacuum alphabet
    ("--n", "3", "--alpha2", "1,16"),     # an empty failure branch
    ("--n", "64", "--alpha2", "3000", "--tail-eps", "1e-300"),    # CutoffOverflow
    ("--n", "513", "--alpha2", "1"),      # one past oracle.VERIFY_N_CAP
])
def test_verify_usage_errors_precede_results(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_verify_certification_failure_exit_5(capsys, monkeypatch):
    def failing(spec, basis="phi", tail_eps=None):
        raise CertificationFailure("two-stage POVM does not resolve the span")

    monkeypatch.setattr(oracle, "build_workspace", failing)
    code, out, err = run(capsys, "verify", "--n", "3", "--alpha2", "1")
    assert (code, out) == (5, "")
    assert err == "certification failure: two-stage POVM does not resolve the span\n"


def test_verify_bad_list_exit_2(capsys):
    code, _, _ = run(capsys, "verify", "--n", "3", "--alpha2", "1.0,oops")
    assert code == 2
    code, _, err = run(capsys, "verify", "--n", "3", "--alpha2", ",")
    assert code == 2 and err.endswith("alpha2 list is empty\n")


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
