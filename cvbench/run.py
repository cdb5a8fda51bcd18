"""cvdisc benchmark: closed-loop workloads checked against a Gram-matrix reference.

Run from the root of a source checkout (cvdisc is imported from ./src):

    python3 cvbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 cvbench/run.py --workload sweep --seed 1 --seconds 20 --trace 1
    python3 cvbench/run.py --smoke

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. --smoke runs one
operation of every workload, untraced and traced, with every check, and
exits 0 only if all of it passes. See cvbench/README.md.
"""

import os

# One thread for BLAS and OpenMP, set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".cvbench_out")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def import_cvdisc() -> float:
    """Import cvdisc from this checkout's src/ and return the seconds taken."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import cvdisc
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(cvdisc.__file__))) != SRC:
        raise ImportError(f"cvdisc imported from {cvdisc.__file__}, not from {SRC}")
    return elapsed


def environment_line(seed) -> str:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"# env nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} {threads} seed={seed}")


def probe(workload_name: str, seed: int, spawned_at: float) -> None:
    """Set-up of one fresh process: import, inputs, one warm-up operation.

    Prints the set-up time since the parent spawned this interpreter, the
    import time, and the median of five calibration-kernel runs made after
    the set-up.
    """
    import_s = import_cvdisc()
    import workloads
    cls = workloads.WORKLOADS[workload_name]
    workload = cls(seed, OUT)
    workload.run(workload.inputs(0))
    setup_s = time.monotonic() - spawned_at
    from calibrate import Calibration
    calibration = Calibration(memory=cls.memory_bound)
    kernel_s = statistics.median(calibration.kernel_s() for _ in range(5))
    print(json.dumps({"import_s": import_s, "setup_s": setup_s,
                      "scale": calibration.nominal_s / kernel_s}))


def measure_setup(workload_name: str, seed: int) -> dict:
    """Set-up time of SETUP_PROBES fresh interpreters, each run to its warm-up.

    Each probe's set-up and import times are scaled by its own calibration
    (see calibrate.py).
    """
    raw, scaled, imports = [], [], []
    for _ in range(SETUP_PROBES):
        spawned_at = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", workload_name,
             "--seed", str(seed), "--spawned-at", repr(spawned_at)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        result = json.loads(done.stdout.splitlines()[-1])
        raw.append(result["setup_s"])
        scaled.append(result["setup_s"] * result["scale"])
        imports.append(result["import_s"] * result["scale"])
    return {"setup_s": statistics.median(scaled), "raw_setup_s": statistics.median(raw),
            "import_s": statistics.median(imports)}


def run_loop(workload, seconds: float, calibration, tracer=None) -> dict:
    """Closed loop: operations one after another, at least one, until `seconds` pass.

    Only run() is timed. The calibration kernel, the inputs and the checks
    fall between the timed regions; operation i is scaled by the mean of
    the kernel runs just before and just after it. Operation 0 is the
    untimed warm-up, so timed operations count from 1.
    """
    raw, kernel, errors = [], [calibration.kernel_s()], []
    failed = 0
    loop_start = time.perf_counter()
    op_index = 1
    while op_index == 1 or time.perf_counter() - loop_start < seconds:
        x = workload.inputs(op_index)
        if tracer is not None:
            tracer.begin_op(op_index)
        start = time.perf_counter()
        try:
            out = workload.run(x)
        except Exception:  # a failed operation is counted, and the loop goes on
            failed += 1
            out = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        raw.append(elapsed)
        kernel.append(calibration.kernel_s())
        if out is not None:
            errors += workload.check(x, out)
        op_index += 1
    errors += workload.finish()
    scales = [2.0 * calibration.nominal_s / (before + after)
              for before, after in zip(kernel, kernel[1:])]
    return {"raw": raw, "scales": scales, "scaled": [t * s for t, s in zip(raw, scales)],
            "failed": failed, "errors": errors}


def _quartiles_ms(times: list) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return f"{1e3 * q2:.4f} [{1e3 * q1:.4f}, {1e3 * q3:.4f}]"


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from calibrate import Calibration
    os.makedirs(OUT, exist_ok=True)
    cls = workloads.WORKLOADS[workload_name]
    setup = measure_setup(workload_name, seed)
    calibration = Calibration(memory=cls.memory_bound)
    workload = cls(seed, OUT)
    warm = workload.inputs(0)
    errors = workload.check(warm, workload.run(warm))
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    result = run_loop(workload, seconds, calibration, tracer)
    if tracer is not None:
        tracer.uninstall()
    errors += result["errors"]
    attempted, failed = len(result["raw"]), result["failed"]
    print(environment_line(seed))
    print(f"# workload={workload_name} trace={int(trace)} seconds={seconds} "
          f"attempted={attempted} failed={failed}")
    print(f"# op ms, median [quartiles] of {attempted}: scaled {_quartiles_ms(result['scaled'])}"
          f", raw {_quartiles_ms(result['raw'])}")
    print(f"# setup_s, median of {SETUP_PROBES} fresh processes: scaled "
          f"{setup['setup_s']:.4f}, raw {setup['raw_setup_s']:.4f}")
    for message in errors[:20]:
        print(f"# CHECK FAILED: {message}")
    if len(errors) > 20:
        print(f"# ... {len(errors) - 20} more check failures")
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT, f"spans-{workload_name}.jsonl"))
        metrics = tracer.per_layer(workload.points_per_op, setup["import_s"], result["scales"])
    else:
        scaled = result["scaled"]
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "throughput_per_s": {"value": workload.units_per_op * (attempted - failed)
                                 / sum(scaled), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(scaled), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def smoke() -> int:
    """One operation of every workload, untraced and traced, with all checks."""
    import workloads
    from calibrate import Calibration
    from spans import PER_LAYER, Tracer
    os.makedirs(OUT, exist_ok=True)
    print(environment_line(0))
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        calibration = Calibration(memory=cls.memory_bound)
        for traced in (False, True):
            workload = cls(0, OUT)
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                result = run_loop(workload, 0.0, calibration, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            problems += [f"{name}: {e}" for e in result["errors"]]
            if result["failed"] or len(result["raw"]) != 1:
                problems.append(f"{name}: {result['failed']} of {len(result['raw'])} failed")
            if tracer is not None:
                tracer.per_layer(workload.points_per_op, 0.0, result["scales"])
            print(f"# smoke {name} traced={traced}: {len(result['errors'])} check errors, "
                  f"{1e3 * result['raw'][0]:.1f} ms")
    try:
        measure_setup("sweep", 0)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        problems.append(f"set-up probe: {exc}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = [m["name"] for m in spec["per_layer"]]
    if declared != [m[0] for m in PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    for message in problems:
        print(f"# SMOKE FAILED: {message}")
    print("# smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "large_n", "mc", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.probe:
        probe(args.probe, args.seed, args.spawned_at)
        return 0
    try:
        import_cvdisc()
    except ImportError as exc:
        print(f"cannot import cvdisc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
