"""Command-line surface: reports, CSV sweeps, Monte Carlo runs, the N=3
closed-form solver, and oracle verification.

Exit codes: 0 success, 2 argument/domain error, 3 I/O failure, 4 statistical
flag (a Monte Carlo cell beyond 6 sigma), 5 certification failure, 141
(128 + SIGPIPE) stdout closed by its reader.

report and sweep print the same views of a coefficient record, collected by
_values from ir_columns and info_columns: report of the one-point profile of
its spec, sweep of each block of one coefficient_grid call over its whole
alpha^2 grid, one format string per CSV row. mc takes its table's columns and
its 6 sigma flag as arrays from the sampled joint record, GRID_BLOCK cells at
a time, and formats each row with one format string too; its counts CSV walks
the same blocks. One printer, _print_fields, writes every name = value block:
report's, n3's and mc's summary.

The argparse parser is the one list of subcommands: each subparser holds its
handler, a cmd_* function of the parsed namespace, which main calls. The
parser is built once per process, on the first main call, and reused:
parsing does not change it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import stat
import sys
import tempfile
from collections.abc import Iterable, Iterator

import numpy as np

from . import analytic3, discrim, infotheory, montecarlo, oracle
from .ensemble import (GRID_BLOCK, TAIL_EPS, CoefficientProfile, EnsembleSpec, coefficient_grid,
                       coefficients)
from .errors import CertificationFailure, CvdiscError, DomainError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_STATISTICAL = 4
EXIT_CERTIFICATION = 5
EXIT_BROKEN_PIPE = 141

CSV_HEADER = ("alpha_sq,p_s,p_c_med,p_c_med_beta,p_c_ir,fidelity,infidelity,"
              "error_bound,i_ud,i_ir,gain,failure_dim")
_CSV_COLUMNS = CSV_HEADER.split(",")
# %.12e formats a float as format(x, ".12e") does; failure_dim is an integer.
_CSV_ROW = ",".join(["%.12e"] * (len(_CSV_COLUMNS) - 1) + ["%d"]) + "\n"

STEPS_CAP = 10 ** 6

_MC_ROW = "%4d %7d %6s %10d %.6e %.6e %8.3f\n"
# The two-sided normal tail beyond 6 sigma.
_SIX_SIGMA = math.erfc(6.0 / math.sqrt(2.0))

_REPORT_FIELDS = ("p_s", "p_c_med", "p_c_med_beta", "p_c_ir", "fidelity",
                  "infidelity", "error_bound", "confidence_success",
                  "confidence_failure")
_REPORT_LINES = ("n_states", "alpha_sq", *_REPORT_FIELDS, "i_ud", "i_ir", "gain",
                 "h_fail", "failure_dim", "full_separation")
_N3_LINES = ("alpha_sq", "berry_phase", "root_1", "root_2", "root_3", "selected_branch",
             "p_s", "q_tilde", "kink_below", "kink_above")
_MC_LINES = ("empirical_p_s", "analytic_p_s", "empirical_confidence_failure",
             "analytic_confidence_failure", "max_abs_z", "rng_algorithm")


def _g(x: float | int | str) -> str:
    """An integer, flag or word as it is; any other figure to 12 digits."""
    return str(x) if isinstance(x, (int, str)) else f"{x:.12g}"


def _print_fields(values: dict, names: Iterable[str], width: int) -> None:
    """Print one "name = value" line per name, the name padded to width."""
    print("\n".join(f"{name:<{width}}= {_g(values[name])}" for name in names))


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    # Write what path names, as a shell's > would. A regular file, or a new
    # one, is written to a temp file beside it (beside its target, for a
    # symlink) and renamed over it with the old file's mode (a new file's is
    # 0o666 less the umask), so no partial file can remain; chunks may be
    # computed lazily, and a failure while computing one also leaves no
    # file. Anything else (a FIFO, a device) is written in place. An OSError
    # names path, never the temp file.
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = stat.S_IFREG | (0o666 & ~umask)
        if not stat.S_ISREG(mode):
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(chunks)
            return
        target = os.path.realpath(path) if os.path.islink(path) else path
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(target)),
                                   prefix=".cvdisc-", suffix=".tmp")
        try:
            os.fchmod(fd, stat.S_IMODE(mode))
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(chunks)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from exc


def _values(profile: CoefficientProfile) -> dict:
    """Every figure of a profile by name: the fields of ir_columns and
    info_columns plus alpha_sq and failure_dim, scalars for one point and
    columns for a grid block. alpha_sq is the spec's, so -0 prints as 0."""
    return {**vars(discrim.ir_columns(profile)), **vars(infotheory.info_columns(profile)),
            "alpha_sq": profile.alpha_sq, "failure_dim": profile.failure_dim}


def cmd_report(args: argparse.Namespace) -> int:
    values = {"n_states": args.n, **_values(coefficients(EnsembleSpec(args.n, args.alpha2)))}
    _print_fields(values, _REPORT_LINES, 20)
    return EXIT_OK


def _sweep_grid(n: int, lo: float, hi: float, steps: int) -> np.ndarray:
    """The uniform alpha^2 grid of a sweep, checked before any point is
    computed: every grid point lies between the bounds, so checking both
    checks the grid."""
    EnsembleSpec(n, lo)
    EnsembleSpec(n, hi)
    if not hi > lo:
        raise DomainError("alpha2-max must exceed alpha2-min")
    if not 2 <= steps <= STEPS_CAP:
        raise DomainError(f"steps must be in [2, {STEPS_CAP}], got {steps}")
    return np.linspace(lo, hi, steps)


def _sweep_chunks(n: int, grid: np.ndarray) -> Iterator[str]:
    """The sweep CSV: the header, then the rows of one grid block at a time."""
    yield CSV_HEADER + "\n"
    for block in coefficient_grid(n, grid):
        values = _values(block)
        columns = [values[name].tolist() for name in _CSV_COLUMNS]
        yield "".join(_CSV_ROW % row for row in zip(*columns))


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = _sweep_grid(args.n, args.alpha2_min, args.alpha2_max, args.steps)
    _atomic_write(args.out, _sweep_chunks(args.n, grid))
    return EXIT_OK


def _beyond_6_sigma(count: np.ndarray, expected: np.ndarray, z: np.ndarray) -> bool:
    """Whether any cell's count deviates beyond 6 sigma. From an expected
    count of 100 up, |z| > 6 decides. Below that the normal tails are too
    light (a correct sampler passes |z| > 6 ~400 times too often at 10
    expected counts, ~5e6 times at 0.01), so the count k is tested by the
    Poisson Chernoff bound e^-lam (e lam/k)^k on the chance of a count as far
    from lam on its side against the two-sided 6 sigma level 1.97e-9; the
    bound is 0 for a count in a cell of probability 0."""
    low = expected < 100.0
    if (np.abs(z[~low]) > 6.0).any():
        return True
    k, lam = count[low], expected[low]
    tail = np.exp(-lam) * (math.e * lam / np.maximum(k, 1)) ** k
    return bool((tail < _SIX_SIGMA).any())


def _cell_blocks(counts: np.ndarray) -> Iterator[tuple[int, np.ndarray, list[list]]]:
    """The (prep, outcome, branch) cells of counts in blocks of whole preps,
    at most GRID_BLOCK cells each (at least one prep): the first prep, the
    block's counts and its prep, outcome and branch columns in row order."""
    n = counts.shape[0]
    rows = max(1, GRID_BLOCK // (2 * n))
    for start in range(0, n, rows):
        count = counts[start:start + rows]
        k, kp, _ = np.indices(count.shape).reshape(3, -1)
        yield start, count, [(k + start).tolist(), kp.tolist(), ["s", "f"] * (k.size // 2)]


def _count_rows(counts: np.ndarray) -> Iterator[str]:
    """The counts CSV: the header, then one row per (prep, outcome, branch)."""
    yield "prep,outcome,branch,count\n"
    for _, count, index in _cell_blocks(counts):
        yield "".join("%d,%d,%s,%d\n" % row for row in zip(*index, count.ravel().tolist()))


def _mc_table(result: montecarlo.MCResult) -> tuple[float, bool]:
    """Print the mc table, a row per (prep, outcome, branch) cell, in
    blocks of at most GRID_BLOCK cells; return the largest |z| and whether
    any cell deviates beyond 6 sigma."""
    joint, shots = result.joint, result.shots
    n = joint.n_states
    worst_z, flagged = 0.0, False
    print("prep outcome branch      count    empirical     analytic        z")
    for start, count, index in _cell_blocks(result.counts):
        # Analytic probability of (prep k, outcome k', branch): uniform
        # prior over preparations times the conditional joint.
        prob = joint.columns(start, start + len(count)) / n
        emp = count / shots
        expected = prob * shots
        with np.errstate(divide="ignore", invalid="ignore"):
            # A cell of probability 0 divides by 0: inf for a count, NaN for none.
            z = (count - expected) / np.sqrt(expected * (1.0 - prob))
        z[np.isnan(z)] = 0.0
        worst_z = max(worst_z, float(np.abs(z).max()))
        flagged = flagged or _beyond_6_sigma(count, expected, z)
        columns = [*index, count.ravel().tolist(), emp.ravel().tolist(),
                   prob.ravel().tolist(), z.ravel().tolist()]
        sys.stdout.write("".join(_MC_ROW % row for row in zip(*columns)))
    return worst_z, flagged


def cmd_mc(args: argparse.Namespace) -> int:
    spec = EnsembleSpec(args.n, args.alpha2)
    config = montecarlo.MCConfig(spec=spec, shots=args.shots, seed=args.seed)
    result = montecarlo.simulate(config)
    rep = discrim.ir_report(spec)

    worst_z, flagged = _mc_table(result)
    _print_fields({**vars(result), "analytic_p_s": rep.p_s,
                   "analytic_confidence_failure": rep.confidence_failure,
                   "max_abs_z": worst_z}, _MC_LINES, 29)

    if args.out is not None:
        _atomic_write(args.out, _count_rows(result.counts))
    if flagged:
        print("statistical flag: a cell deviates beyond 6 sigma", file=sys.stderr)
        return EXIT_STATISTICAL
    return EXIT_OK


def cmd_n3(args: argparse.Namespace) -> int:
    sol = analytic3.solve_n3(args.alpha2)
    values = {**vars(sol), **{f"root_{i}": root for i, root in enumerate(sol.roots, 1)},
              "selected_branch": sol.selected, "kink_below": sol.kink_below or "none"}
    _print_fields(values, _N3_LINES, 16)
    return EXIT_OK


def _gap(a: discrim.DiscriminationReport, b: discrim.DiscriminationReport) -> float:
    """The largest gap between two reports over _REPORT_FIELDS."""
    return max(abs(getattr(a, name) - getattr(b, name)) for name in _REPORT_FIELDS)


def cmd_verify(args: argparse.Namespace) -> int:
    """Check every point, then print the result lines: any rejection by
    build_workspace, at any point, exits before the first line."""
    specs = [EnsembleSpec(args.n, alpha_sq) for alpha_sq in args.alpha2]
    lines = []

    def check(label: str, ok: bool, detail: str) -> None:
        lines.append(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")

    for spec in specs:
        tag = f"(n={args.n}, alpha_sq={_g(spec.alpha_sq)})"
        ws = oracle.build_workspace(spec, "phi")

        for cert in oracle.certify_med_optimality(ws):
            check(f"helstrom-{cert.which} {tag}", cert.passed,
                  f"worst eigenvalue {cert.worst_eigenvalue:.3e}, "
                  f"hermiticity defect {cert.hermiticity_defect:.3e}")

        closed = discrim.ir_report(spec)
        brute = oracle.brute_force_probabilities(ws)
        gap = _gap(closed, brute)
        check(f"closed-vs-brute {tag}", gap < 1e-9, f"max field gap {gap:.3e}")

        ws_fock = oracle.build_workspace(spec, "fock", tail_eps=args.tail_eps)
        brute_fock = oracle.brute_force_probabilities(ws_fock)
        tol = max(1e-9, 100.0 * args.tail_eps)
        gap = _gap(brute, brute_fock)
        check(f"phi-vs-fock {tag} (cutoff {ws_fock.dimension - 1})",
              gap < tol, f"max field gap {gap:.3e}, tolerance {tol:.1e}")

    print("\n".join(lines))
    return EXIT_OK if all(line.startswith("PASS") for line in lines) else EXIT_CERTIFICATION


def _alpha_list(raw: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad alpha2 list {raw!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("alpha2 list is empty")
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvdisc",
        description="Discrimination numerics for phase-symmetric coherent-state "
                    "alphabets: unambiguous separation with recycled failures.")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="print all figures of merit for one point")
    rep.add_argument("--n", type=int, required=True)
    rep.add_argument("--alpha2", type=float, required=True)
    rep.set_defaults(run=cmd_report)

    swp = sub.add_parser("sweep", help="write a CSV over a uniform alpha^2 grid")
    swp.add_argument("--n", type=int, required=True)
    swp.add_argument("--alpha2-min", type=float, required=True)
    swp.add_argument("--alpha2-max", type=float, required=True)
    swp.add_argument("--steps", type=int, required=True)
    swp.add_argument("--out", required=True)
    swp.set_defaults(run=cmd_sweep)

    mc = sub.add_parser("mc", help="run the seeded measurement-chain simulator")
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--alpha2", type=float, required=True)
    mc.add_argument("--shots", type=int, required=True)
    mc.add_argument("--seed", type=int, required=True)
    mc.add_argument("--out", default=None)
    mc.set_defaults(run=cmd_mc)

    n3 = sub.add_parser("n3", help="closed-form three-state solution at one point")
    n3.add_argument("--alpha2", type=float, required=True)
    n3.set_defaults(run=cmd_n3)

    ver = sub.add_parser("verify", help="run oracle certification checks")
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--alpha2", type=_alpha_list, required=True,
                     help="comma-separated alpha^2 values")
    ver.add_argument("--tail-eps", type=float, default=TAIL_EPS)
    ver.set_defaults(run=cmd_verify)

    # argparse takes -1e-3 for an option flag. No option looks like a
    # negative number, so every one is a value and meets the domain check.
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK

    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`cvdisc mc ... | head -1`): fd 1 goes to
        # /dev/null so the interpreter's last flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return EXIT_BROKEN_PIPE
    except CertificationFailure as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except CvdiscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
