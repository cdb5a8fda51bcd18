"""The four benchmark workloads.

Each workload is a closed loop: one process, one client, the next operation
only after the previous one returns. Every operation of a workload does the
same work on inputs drawn afresh from default_rng([seed, op_index]), so no
operation can reuse a result of the one before it and per-operation times
are unimodal. run() is the timed part; check() compares its outputs with the
Gram-matrix reference and with properties of the method, outside the timed
region.

Input ranges stay where the faults recorded in CHANGES.md do not fire; the
README gives the reasons for each range.

The program is always reached through module attributes looked up at call
time (cvdisc.ir_report, cvdisc.cli.main), so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

import cvdisc
import cvdisc.cli
import reference

CSV_HEADER = ("alpha_sq,p_s,p_c_med,p_c_med_beta,p_c_ir,fidelity,infidelity,"
              "error_bound,i_ud,i_ir,gain,failure_dim")
PROB_FIELDS = ("p_s", "p_c_med", "p_c_med_beta", "p_c_ir", "fidelity")

# Agreement with the reference: 1e-10 relative plus an absolute floor for the
# tiny p_s of large or near-vacuum alphabets. The program agrees to <= 1e-11
# on every input range below; a 1e-9 relative error in any probability
# field is caught because every such field is >= 1/N there (p_s aside).
REL_TOL = 1e-10
ABS_TOL = 1e-13
# Slack for identities between columns that the CSV prints to 13 significant
# digits; columns in bits are scaled by 1 + log2 N.
CSV_SLACK = 1e-12
Z_LIMIT = 5.0


def _cmp(errors: list, where: str, field: str, value: float, ref: float) -> None:
    if abs(value - ref) > REL_TOL * abs(ref) + ABS_TOL:
        errors.append(f"{where}: {field} = {value!r}, reference {ref!r}")


class Workload:
    """One workload: fixed shape, per-operation inputs drawn from the seed."""

    name = ""
    units_per_op = 0
    points_per_op = 0
    # Whether the calibration kernel adds its memory-streaming pass.
    memory_bound = False

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def rng(self, op_index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, op_index])

    def inputs(self, op_index: int):
        raise NotImplementedError

    def run(self, x):
        raise NotImplementedError

    def check(self, x, out) -> list[str]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks that need every operation of the run; [] if none."""
        return []


class Sweep(Workload):
    """`cvdisc sweep` in process, one call per N, over a dense alpha^2 grid."""

    name = "sweep"
    N_MIX = (3, 4, 5, 6, 7, 8)
    STEPS = 40
    units_per_op = len(N_MIX) * STEPS
    points_per_op = units_per_op

    def inputs(self, op_index):
        rng = self.rng(op_index)
        return float(rng.uniform(0.2, 0.4)), float(rng.uniform(5.8, 6.0))

    def _path(self, n: int) -> str:
        return os.path.join(self.out_dir, f"sweep-n{n}.csv")

    def run(self, x):
        lo, hi = x
        codes = []
        for n in self.N_MIX:
            codes.append(cvdisc.cli.main([
                "sweep", "--n", str(n), "--alpha2-min", repr(lo),
                "--alpha2-max", repr(hi), "--steps", str(self.STEPS),
                "--out", self._path(n)]))
        if any(codes):
            raise RuntimeError(f"cvdisc sweep exit codes {codes}")
        return codes

    def check(self, x, out):
        lo, hi = x
        errors = []
        grid = np.linspace(lo, hi, self.STEPS)
        for n in self.N_MIX:
            with open(self._path(n), encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            if lines[0] != CSV_HEADER:
                errors.append(f"sweep n={n}: header {lines[0]!r}")
                continue
            if len(lines) != self.STEPS + 1:
                errors.append(f"sweep n={n}: {len(lines) - 1} rows, expected {self.STEPS}")
                continue
            names = CSV_HEADER.split(",")
            log2n = math.log2(n)
            for line, a2 in zip(lines[1:], grid.tolist()):
                row = dict(zip(names, (float(v) for v in line.split(","))))
                where = f"sweep n={n} alpha_sq={a2!r}"
                if abs(row["alpha_sq"] - a2) > CSV_SLACK * a2:
                    errors.append(f"{where}: alpha_sq column {row['alpha_sq']!r}")
                ref = reference.figures(cvdisc.EnsembleSpec(n, a2), with_joint=True)
                for field in PROB_FIELDS:
                    _cmp(errors, where, field, row[field], getattr(ref, field))
                _cmp(errors, where, "i_ud / log2 N", row["i_ud"] / log2n, ref.p_s)
                _cmp(errors, where, "i_ir", row["i_ir"],
                     reference.mutual_information(ref.success, ref.failure))
                s = CSV_SLACK
                if not (row["p_s"] <= row["p_c_ir"] + s and row["p_c_ir"] <= row["p_c_med"] + s
                        and row["p_c_med"] <= 1.0 + s):
                    errors.append(f"{where}: p_s <= p_c_ir <= p_c_med <= 1 broken")
                s_bits = CSV_SLACK * (1.0 + log2n)
                if not (row["i_ud"] <= row["i_ir"] + s_bits and row["i_ir"] <= log2n + s_bits):
                    errors.append(f"{where}: i_ud <= i_ir <= log2 N broken")
                if abs(row["gain"] - (row["i_ir"] - row["i_ud"])) > s_bits:
                    errors.append(f"{where}: gain != i_ir - i_ud")
                if abs(row["infidelity"] - (1.0 - row["fidelity"])) > s:
                    errors.append(f"{where}: infidelity != 1 - fidelity")
                if not 1 <= row["failure_dim"] <= n - 1:
                    errors.append(f"{where}: failure_dim {row['failure_dim']}")
        return errors


class LargeN(Workload):
    """ir_report, info_report and joint_distribution at large N."""

    name = "large_n"
    # alpha^2 windows sit above the zero-masking fault (CHANGES.md), which
    # moves p_c_med by ~3e-7 at N = 64..128 for smaller alpha^2.
    WINDOWS = ((64, 40.0, 60.0), (96, 80.0, 110.0), (128, 120.0, 160.0))
    units_per_op = len(WINDOWS)
    points_per_op = units_per_op

    def inputs(self, op_index):
        rng = self.rng(op_index)
        return [(n, float(rng.uniform(lo, hi))) for n, lo, hi in self.WINDOWS]

    def run(self, x):
        out = []
        for n, a2 in x:
            spec = cvdisc.EnsembleSpec(n, a2)
            out.append((cvdisc.ir_report(spec), cvdisc.info_report(spec),
                        cvdisc.joint_distribution(spec)))
        return out

    def check(self, x, out):
        errors = []
        for (n, a2), (rep, info, joint) in zip(x, out):
            where = f"large_n n={n} alpha_sq={a2!r}"
            ref = reference.figures(cvdisc.EnsembleSpec(n, a2), with_joint=True)
            for field in PROB_FIELDS:
                _cmp(errors, where, field, getattr(rep, field), getattr(ref, field))
            columns = joint.success.sum(axis=0) + joint.failure.sum(axis=0)
            if np.max(np.abs(columns - 1.0)) > 1e-12:
                errors.append(f"{where}: joint columns sum to {columns.min()!r}..{columns.max()!r}")
            if np.max(np.abs(joint.success - ref.success)) > ABS_TOL:
                errors.append(f"{where}: success block is not p_s * identity")
            worst = np.max(np.abs(joint.failure - ref.failure) - REL_TOL * ref.failure)
            if worst > ABS_TOL:
                errors.append(f"{where}: failure block off the reference by {worst:.3e}")
            ir_from_joint = rep.p_s + np.trace(joint.failure) / n
            if abs(ir_from_joint - rep.p_c_ir) > 1e-12:
                errors.append(f"{where}: p_s + tr(failure)/N = {float(ir_from_joint)!r} != p_c_ir")
            _cmp(errors, where, "i_ir vs MI(joint)", info.i_ir,
                 reference.mutual_information(joint.success, joint.failure))
            _cmp(errors, where, "i_ir", info.i_ir,
                 reference.mutual_information(ref.success, ref.failure))
            _cmp(errors, where, "i_ud / log2 N", info.i_ud / math.log2(n), ref.p_s)
        return errors


class MonteCarlo(Workload):
    """simulate at 1e6 shots for each N of a small mix.

    alpha^2 is drawn once per run, so the per-cell 5-sigma test can pool the
    counts of every operation: one test per cell and run, not one per cell
    and operation, keeps the false-alarm rate of a correct sampler near
    1e-4 per run. Each operation gets its own sampler seed.
    """

    name = "mc"
    SHOTS = 10 ** 6
    # Narrow windows keep the failure-branch share, which sets the cost,
    # nearly fixed; every failure cell has probability >= 3e-4 in them.
    WINDOWS = ((3, 1.0, 1.1), (5, 1.5, 1.6), (8, 2.0, 2.1))
    units_per_op = SHOTS * len(WINDOWS)
    points_per_op = len(WINDOWS)
    memory_bound = True

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        rng = np.random.default_rng([seed, 2 ** 32 - 1])
        self.alpha_sq = [float(rng.uniform(lo, hi)) for _, lo, hi in self.WINDOWS]
        self.pooled = [np.zeros((n, n, 2), dtype=np.int64) for n, _, _ in self.WINDOWS]
        self.pooled_ops = 0

    def inputs(self, op_index):
        return int(self.rng(op_index).integers(2 ** 63))

    def run(self, x):
        counts = []
        for (n, _, _), a2 in zip(self.WINDOWS, self.alpha_sq):
            config = cvdisc.MCConfig(spec=cvdisc.EnsembleSpec(n, a2),
                                     shots=self.SHOTS, seed=x)
            counts.append(cvdisc.simulate(config).counts)
        return counts

    def check(self, x, out):
        errors = []
        for (n, _, _), counts, pooled in zip(self.WINDOWS, out, self.pooled):
            where = f"mc n={n} sampler seed {x}"
            if counts.shape != (n, n, 2) or int(counts.sum()) != self.SHOTS:
                errors.append(f"{where}: counts do not sum to the shot count")
                continue
            off_diagonal = counts[:, :, 0][~np.eye(n, dtype=bool)]
            if off_diagonal.any():
                errors.append(f"{where}: success counts off the diagonal")
            pooled += counts
        self.pooled_ops += 1
        return errors

    def finish(self):
        errors = []
        shots = self.SHOTS * self.pooled_ops
        for (n, _, _), a2, pooled in zip(self.WINDOWS, self.alpha_sq, self.pooled):
            where = f"mc n={n} alpha_sq={a2!r} ({shots} pooled shots)"
            ref = reference.figures(cvdisc.EnsembleSpec(n, a2), with_joint=True)
            # counts[k, k', branch] against p(k) p(k', branch | k).
            prob = np.stack([ref.success.T, ref.failure.T], axis=-1) / n
            emp = pooled / shots
            sigma = np.sqrt(prob * (1.0 - prob) / shots)
            zero = prob == 0.0
            if (pooled[zero] != 0).any():
                errors.append(f"{where}: counts in cells of probability 0")
            z = np.abs(emp[~zero] - prob[~zero]) / sigma[~zero]
            if z.max() > Z_LIMIT:
                errors.append(f"{where}: a cell deviates {z.max():.2f} sigma")
            p_s = float(pooled[:, :, 0].sum()) / shots
            z_ps = abs(p_s - ref.p_s) / math.sqrt(ref.p_s * (1.0 - ref.p_s) / shots)
            if z_ps > Z_LIMIT:
                errors.append(f"{where}: empirical p_s {p_s!r} is {z_ps:.2f} sigma "
                              f"from lambda_min(G) = {ref.p_s!r}")
        return errors


class Verify(Workload):
    """`cvdisc verify` in process over a fixed list of (N, alpha^2) points.

    Each alpha^2 window lies inside one Fock cutoff (given in the comment),
    so every operation assembles workspaces of the same sizes. The windows
    avoid the three verify faults in CHANGES.md: large alpha^2 (N = 3 fails
    from alpha^2 ~ 12), zero masking (N = 16) and the per-row Fock tail
    (N = 8 at alpha^2 = 1).
    """

    name = "verify"
    WINDOWS = (
        (2, 0.5838, 0.6798),    # cutoff 12
        (3, 1.8402, 1.9986),    # cutoff 18
        (3, 7.9362, 8.1982),    # cutoff 35
        (4, 3.9863, 4.1973),    # cutoff 25
        (5, 2.9912, 3.1819),    # cutoff 22
        (6, 4.7042, 4.9268),    # cutoff 27
        (8, 5.8529, 6.0919),    # cutoff 30
    )
    units_per_op = len(WINDOWS)
    points_per_op = units_per_op

    def inputs(self, op_index):
        rng = self.rng(op_index)
        groups: dict[int, list[float]] = {}
        for n, lo, hi in self.WINDOWS:
            groups.setdefault(n, []).append(float(rng.uniform(lo, hi)))
        return groups

    def run(self, x):
        out = []
        for n, alphas in x.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cvdisc.cli.main(["verify", "--n", str(n), "--alpha2",
                                        ",".join(repr(a) for a in alphas)])
            if code != 0:
                raise RuntimeError(f"cvdisc verify --n {n} exit code {code}:\n{buf.getvalue()}")
            out.append(buf.getvalue())
        return out

    def check(self, x, out):
        errors = []
        for (n, alphas), text in zip(x.items(), out):
            lines = text.splitlines()
            if any(not line.startswith("PASS ") for line in lines):
                errors.append(f"verify n={n}: a line other than PASS:\n{text}")
            for a2 in alphas:
                tag = f"(n={n}, alpha_sq={a2:.12g})"
                passed = sum(1 for line in lines if line.startswith("PASS ") and tag in line)
                if passed != 4:
                    errors.append(f"verify {tag}: {passed} PASS lines, expected 4")
        return errors


WORKLOADS = {cls.name: cls for cls in (Sweep, LargeN, MonteCarlo, Verify)}
