"""Command-line surface: reports, CSV sweeps, Monte Carlo runs, the N=3
closed-form solver, and oracle verification.

Exit codes: 0 success, 2 argument/domain error, 3 I/O failure, 4 statistical
flag (a Monte Carlo cell beyond 6 sigma), 5 certification failure.

report prints a view of one record per point: _point_values collects both
reports from one spec, whose coefficient profile is evaluated once. sweep
makes one coefficient_grid call over its whole alpha^2 grid and writes each
block of rows from the column views ir_columns and info_columns, one format
string per CSV row.

The argparse parser is built once per process, on the first main call, and
reused: parsing does not change it.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import analytic3, discrim, infotheory, montecarlo, oracle
from .ensemble import TAIL_EPS, EnsembleSpec, check_tail_eps, coefficient_grid, coefficients
from .errors import (
    CertificationFailure,
    CutoffOverflow,
    DegenerateEnsemble,
    DomainError,
    FullSeparation,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_STATISTICAL = 4
EXIT_CERTIFICATION = 5

CSV_HEADER = ("alpha_sq,p_s,p_c_med,p_c_med_beta,p_c_ir,fidelity,infidelity,"
              "error_bound,i_ud,i_ir,gain,failure_dim")
_CSV_COLUMNS = CSV_HEADER.split(",")
# %.12e formats a float as format(x, ".12e") does; failure_dim is an integer.
_CSV_ROW = ",".join(["%.12e"] * (len(_CSV_COLUMNS) - 1) + ["%d"]) + "\n"

STEPS_CAP = 10 ** 6

_REPORT_FIELDS = ("p_s", "p_c_med", "p_c_med_beta", "p_c_ir", "fidelity",
                  "infidelity", "error_bound", "confidence_success",
                  "confidence_failure")
_REPORT_LINES = ("n_states", "alpha_sq", *_REPORT_FIELDS, "i_ud", "i_ir", "gain",
                 "h_fail", "failure_dim", "full_separation")


@dataclass(frozen=True)
class SweepRequest:
    """Uniform alpha^2 grid request for CSV emission."""

    n_states: int
    alpha_sq_min: float
    alpha_sq_max: float
    steps: int

    def __post_init__(self) -> None:
        # Every grid point lies between the bounds, so checking both checks
        # the grid before any point is computed.
        EnsembleSpec(self.n_states, self.alpha_sq_min)
        EnsembleSpec(self.n_states, self.alpha_sq_max)
        if not self.alpha_sq_max > self.alpha_sq_min:
            raise DomainError("alpha2-max must exceed alpha2-min")
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise DomainError(f"steps must be an integer, got {self.steps!r}")
        if not 2 <= self.steps <= STEPS_CAP:
            raise DomainError(f"steps must be in [2, {STEPS_CAP}], got {self.steps}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.alpha_sq_min, self.alpha_sq_max, self.steps)


def _g(x: float) -> str:
    return f"{x:.12g}"


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    # Write to a sibling temp file and rename so no partial file can remain;
    # chunks may be computed lazily, and a failure while computing one also
    # leaves no file.
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cvdisc-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _point_values(n: int, alpha_sq: float) -> dict[str, float | int]:
    """Every figure of one point, from one spec and so one coefficient
    evaluation: the fields of ir_report and info_report plus n_states,
    alpha_sq and failure_dim. alpha_sq is the spec's, so -0 prints as 0."""
    spec = EnsembleSpec(n, alpha_sq)
    return {"n_states": n, "alpha_sq": spec.alpha_sq,
            **vars(discrim.ir_report(spec)),
            **vars(infotheory.info_report(spec)),
            "failure_dim": coefficients(spec).failure_dim}


def _cell(val: float | int, spec: str) -> str:
    """An integer or flag as it is; any other figure formatted by spec."""
    return str(val) if isinstance(val, int) else format(val, spec)


def cmd_report(n: int, alpha_sq: float) -> int:
    values = _point_values(n, alpha_sq)
    print("\n".join(f"{name:<20}= {_cell(values[name], '.12g')}" for name in _REPORT_LINES))
    return EXIT_OK


def _sweep_chunks(request: SweepRequest) -> Iterator[str]:
    """The sweep CSV: the header, then the rows of one grid block at a time."""
    yield CSV_HEADER + "\n"
    for block in coefficient_grid(request.n_states, request.grid()):
        values = {**vars(discrim.ir_columns(block)), **vars(infotheory.info_columns(block)),
                  "alpha_sq": block.alpha_sq, "failure_dim": block.failure_dim}
        columns = [values[name].tolist() for name in _CSV_COLUMNS]
        yield "".join(_CSV_ROW % row for row in zip(*columns))


def cmd_sweep(request: SweepRequest, out_path: str) -> int:
    _atomic_write(out_path, _sweep_chunks(request))
    return EXIT_OK


def cmd_mc(n: int, alpha_sq: float, shots: int, seed: int,
           out_path: str | None) -> int:
    spec = EnsembleSpec(n, alpha_sq)
    config = montecarlo.MCConfig(spec=spec, shots=shots, seed=seed)
    result = montecarlo.simulate(config)
    rep = discrim.ir_report(spec)

    # Analytic probability of (prep k, outcome k', branch): uniform prior
    # over preparations times the conditional joint.
    analytic = np.stack([result.joint.success.T, result.joint.failure.T], axis=-1) / n

    worst_z = 0.0
    print("prep outcome branch      count    empirical     analytic        z")
    csv_rows = ["prep,outcome,branch,count"]
    for k in range(n):
        for kp in range(n):
            for br, label in ((0, "s"), (1, "f")):
                count = int(result.counts[k, kp, br])
                emp = result.empirical_joint[k, kp, br]
                prob = analytic[k, kp, br]
                sigma = math.sqrt(prob * (1.0 - prob) / shots)
                if sigma > 0.0:
                    z = (emp - prob) / sigma
                elif emp == prob:
                    z = 0.0
                else:
                    z = math.inf
                worst_z = max(worst_z, abs(z))
                print(f"{k:4d} {kp:7d} {label:>6s} {count:10d} "
                      f"{emp:.6e} {prob:.6e} {z:8.3f}")
                csv_rows.append(f"{k},{kp},{label},{count}")
    print(f"empirical_p_s                = {_g(result.empirical_p_s)}")
    print(f"analytic_p_s                 = {_g(rep.p_s)}")
    print(f"empirical_confidence_failure = {_g(result.empirical_confidence_failure)}")
    print(f"analytic_confidence_failure  = {_g(rep.confidence_failure)}")
    print(f"max_abs_z                    = {_g(worst_z)}")
    print(f"rng_algorithm                = {result.rng_algorithm}")

    if out_path is not None:
        _atomic_write(out_path, ["\n".join(csv_rows) + "\n"])
    if worst_z > 6.0:
        print("statistical flag: a cell deviates beyond 6 sigma", file=sys.stderr)
        return EXIT_STATISTICAL
    return EXIT_OK


def cmd_n3(alpha_sq: float) -> int:
    sol = analytic3.solve_n3(alpha_sq)
    period = analytic3.KINK_PERIOD
    below = math.floor(sol.alpha_sq / period) * period
    above = below + period
    lines = [
        f"alpha_sq        = {_g(sol.alpha_sq)}",
        f"berry_phase     = {_g(sol.berry_phase)}",
        f"root_1          = {_g(sol.roots[0])}",
        f"root_2          = {_g(sol.roots[1])}",
        f"root_3          = {_g(sol.roots[2])}",
        f"selected_branch = {sol.selected}",
        f"p_s             = {_g(sol.p_s)}",
        f"q_tilde         = {_g(sol.q_tilde)}",
        f"kink_below      = {_g(below) if below > 0 else 'none'}",
        f"kink_above      = {_g(above)}",
    ]
    print("\n".join(lines))
    return EXIT_OK


def _fields(report: discrim.DiscriminationReport) -> dict[str, float]:
    return {name: getattr(report, name) for name in _REPORT_FIELDS}


def cmd_verify(n: int, alpha_sq_list: list[float], tail_eps: float) -> int:
    specs = [EnsembleSpec(n, alpha_sq) for alpha_sq in alpha_sq_list]
    check_tail_eps(tail_eps)
    # build_workspace rejects the vacuum alphabet and an empty failure branch;
    # both are decided here, from each profile, before the first result line.
    for spec in specs:
        profile = coefficients(spec)
        if profile.degenerate:
            raise DegenerateEnsemble("separation map undefined for a single-state alphabet")
        discrim.failure_profile(profile)
    all_ok = True

    def check(label: str, ok: bool, detail: str) -> None:
        nonlocal all_ok
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")

    for spec in specs:
        tag = f"(n={n}, alpha_sq={_g(spec.alpha_sq)})"
        ws = oracle.build_workspace(spec, "phi")

        for which in ("inputs", "failure_states"):
            cert = oracle.certify_med_optimality(ws, which)
            check(f"helstrom-{which} {tag}", cert.passed,
                  f"worst eigenvalue {cert.worst_eigenvalue:.3e}, "
                  f"hermiticity defect {cert.hermiticity_defect:.3e}")

        closed = discrim.ir_report(spec)
        brute = oracle.brute_force_probabilities(ws)
        gap = max(abs(a - b) for a, b in zip(_fields(closed).values(),
                                             _fields(brute).values()))
        check(f"closed-vs-brute {tag}", gap < 1e-9, f"max field gap {gap:.3e}")

        ws_fock = oracle.build_workspace(spec, "fock", tail_eps=tail_eps)
        brute_fock = oracle.brute_force_probabilities(ws_fock)
        tol = max(1e-9, 100.0 * tail_eps)
        gap = max(abs(a - b) for a, b in zip(_fields(brute).values(),
                                             _fields(brute_fock).values()))
        check(f"phi-vs-fock {tag} (cutoff {ws_fock.dimension - 1})",
              gap < tol, f"max field gap {gap:.3e}, tolerance {tol:.1e}")

    return EXIT_OK if all_ok else EXIT_CERTIFICATION


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

    swp = sub.add_parser("sweep", help="write a CSV over a uniform alpha^2 grid")
    swp.add_argument("--n", type=int, required=True)
    swp.add_argument("--alpha2-min", type=float, required=True)
    swp.add_argument("--alpha2-max", type=float, required=True)
    swp.add_argument("--steps", type=int, required=True)
    swp.add_argument("--out", required=True)

    mc = sub.add_parser("mc", help="run the seeded measurement-chain simulator")
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--alpha2", type=float, required=True)
    mc.add_argument("--shots", type=int, required=True)
    mc.add_argument("--seed", type=int, required=True)
    mc.add_argument("--out", default=None)

    n3 = sub.add_parser("n3", help="closed-form three-state solution at one point")
    n3.add_argument("--alpha2", type=float, required=True)

    ver = sub.add_parser("verify", help="run oracle certification checks")
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--alpha2", type=_alpha_list, required=True,
                     help="comma-separated alpha^2 values")
    ver.add_argument("--tail-eps", type=float, default=TAIL_EPS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK

    try:
        if args.command == "report":
            return cmd_report(args.n, args.alpha2)
        if args.command == "sweep":
            request = SweepRequest(n_states=args.n, alpha_sq_min=args.alpha2_min,
                                   alpha_sq_max=args.alpha2_max, steps=args.steps)
            return cmd_sweep(request, args.out)
        if args.command == "mc":
            return cmd_mc(args.n, args.alpha2, args.shots, args.seed, args.out)
        if args.command == "n3":
            return cmd_n3(args.alpha2)
        if args.command == "verify":
            return cmd_verify(args.n, args.alpha2, args.tail_eps)
        parser.error(f"unknown command {args.command!r}")
    except CertificationFailure as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (DomainError, DegenerateEnsemble, CutoffOverflow, FullSeparation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
