"""Reference figures: single-call timings of the layers, printed as a table.

    python3 cvbench/figures.py

Re-measures the call timings that ROADMAP.md lists under "Open items", and
the cost of numpy's random draws at the mc shot count, which is the floor
for any sampler that draws one number per shot. Each figure is the median
of repeated calls in one process with BLAS pinned to one thread; it is
printed raw and scaled by the calibration kernel (see calibrate.py).
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import cvdisc  # noqa: E402
import cvdisc.cli  # noqa: E402
from calibrate import Calibration  # noqa: E402

OUT = os.path.join(ROOT, ".cvbench_out")


def timed(fn, repeats: int, calibration: Calibration) -> tuple[float, float]:
    """Median raw and scaled seconds of fn() over `repeats` calls."""
    fn()
    raw, scaled = [], []
    before = calibration.kernel_s()
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        after = calibration.kernel_s()
        raw.append(elapsed)
        scaled.append(elapsed * 2.0 * calibration.nominal_s / (before + after))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def _draws(n: int, shots: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    rng.integers(0, n, size=shots)
    rng.random(shots)
    rng.random(shots)


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    spec = cvdisc.EnsembleSpec
    sweep_csv = os.path.join(OUT, "figures-sweep.csv")
    rows = [
        ("coefficients N=3, alpha^2=1", lambda: cvdisc.coefficients(spec(3, 1.0)), 200),
        ("coefficients N=64, alpha^2=50", lambda: cvdisc.coefficients(spec(64, 50.0)), 100),
        ("ir_report N=3, alpha^2=1", lambda: cvdisc.ir_report(spec(3, 1.0)), 200),
        ("info_report N=3, alpha^2=1", lambda: cvdisc.info_report(spec(3, 1.0)), 200),
        ("info_report N=64, alpha^2=50", lambda: cvdisc.info_report(spec(64, 50.0)), 30),
        ("info_report N=256, alpha^2=400", lambda: cvdisc.info_report(spec(256, 400.0)), 5),
        ("joint_distribution N=64, alpha^2=50",
         lambda: cvdisc.joint_distribution(spec(64, 50.0)), 30),
        ("joint_distribution N=256, alpha^2=400",
         lambda: cvdisc.joint_distribution(spec(256, 400.0)), 5),
        ("CLI sweep 2000 points, N=6, alpha^2 in [0.2, 6]",
         lambda: cvdisc.cli.main(["sweep", "--n", "6", "--alpha2-min", "0.2",
                                  "--alpha2-max", "6", "--steps", "2000",
                                  "--out", sweep_csv]), 5),
        ("simulate 1e6 shots, N=6, alpha^2=1.5",
         lambda: cvdisc.simulate(cvdisc.MCConfig(spec(6, 1.5), 10 ** 6, 42)), 15),
        ("  its RNG draws alone (integers + 2 x random, 1e6 each)",
         lambda: _draws(6, 10 ** 6, 42), 15),
        ("build_workspace fock N=4, alpha^2=2",
         lambda: cvdisc.build_workspace(spec(4, 2.0), "fock", tail_eps=1e-12), 50),
    ]
    print("| call | raw | scaled |")
    print("| --- | --- | --- |")
    for label, fn, repeats in rows:
        memory = label.startswith(("simulate", "  its RNG"))
        raw, scaled = timed(fn, repeats, Calibration(memory=memory))
        print(f"| {label} | {raw * 1e3:.3f} ms | {scaled * 1e3:.3f} ms |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
