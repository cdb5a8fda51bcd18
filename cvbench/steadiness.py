"""Run the benchmark on several seeds and report each metric's spread.

    python3 cvbench/steadiness.py --workloads sweep mc --seeds 1 2 3 4 5

Runs the command of BENCHMARK.json once per (workload, seed), one run at a
time, and prints for every metric the median, the quartiles of
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median, beside
the metric's bound. The raw results are appended, one JSON line per run, to
.cvbench_out/steadiness.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    os.makedirs(os.path.join(ROOT, ".cvbench_out"), exist_ok=True)
    log_path = os.path.join(ROOT, ".cvbench_out", "steadiness.jsonl")
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        failed_share = set()
        for seed in args.seeds:
            done = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            with open(log_path, "a", encoding="utf-8") as log:
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false\n{done.stdout}")
                return 1
            failed_share.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr)
        print(f"## {workload}: {len(args.seeds)} runs, failed share {sorted(failed_share)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"{name:42s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:6.3f}" + (f"  bound {bound}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
