"""Span tracer for the traced run.

Wraps cvdisc's public functions at every name their callers look up (for
example both cvdisc.discrim.coefficients and cvdisc.cli.coefficients), from
the benchmark's side only; the program is not edited. Each call records a
span (operation index, span id, parent id, name, start, end). Self time is a
span's duration minus the time its child spans cover; calls are
single-threaded, so children never overlap and their durations add up.
tracemalloc runs only inside montecarlo.simulate, for its peak allocation.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc

# (module, function) pairs to wrap; the span is named module.function.
TARGETS = (
    ("ensemble", "coefficients"),
    ("ensemble", "basis_amplitudes"),
    ("discrim", "ir_report"),
    ("discrim", "failure_profile"),
    ("discrim", "joint_distribution"),
    ("infotheory", "info_report"),
    ("infotheory", "failure_posterior"),
    ("montecarlo", "simulate"),
    ("oracle", "build_workspace"),
    ("oracle", "certify_med_optimality"),
    ("oracle", "brute_force_probabilities"),
    ("cli", "main"),
)

# Per-layer metrics: name, unit, and how to read it from one operation's
# record. "total" and "self" are span times in ms summed over the operation.
PER_LAYER = (
    ("import.cvdisc_s", "s", None),
    ("cli.sweep.self_ms", "ms", ("self", "cli.sweep")),
    ("cli.verify.self_ms", "ms", ("self", "cli.verify")),
    ("ensemble.coefficients.calls_per_point", "count", None),
    ("ensemble.coefficients.ms", "ms", ("total", "ensemble.coefficients")),
    ("ensemble.basis_amplitudes.ms", "ms", ("total", "ensemble.basis_amplitudes")),
    ("discrim.ir_report.self_ms", "ms", ("self", "discrim.ir_report")),
    ("discrim.failure_profile.ms", "ms", ("total", "discrim.failure_profile")),
    ("discrim.joint_distribution.self_ms", "ms", ("self", "discrim.joint_distribution")),
    ("infotheory.info_report.self_ms", "ms", ("self", "infotheory.info_report")),
    ("infotheory.failure_posterior.ms", "ms", ("total", "infotheory.failure_posterior")),
    ("montecarlo.simulate.self_ms", "ms", ("self", "montecarlo.simulate")),
    ("montecarlo.simulate.peak_alloc_mb", "MiB", ("extra", "peak_alloc_mb")),
    ("oracle.build_workspace.phi_ms", "ms", ("total", "oracle.build_workspace.phi")),
    ("oracle.build_workspace.fock_ms", "ms", ("total", "oracle.build_workspace.fock")),
    ("oracle.certify_med_optimality.ms", "ms", ("total", "oracle.certify_med_optimality")),
    ("oracle.brute_force_probabilities.ms", "ms",
     ("total", "oracle.brute_force_probabilities")),
    ("oracle.fock_dim_sum", "count", ("extra", "fock_dim_sum")),
    ("trace.op_p50_ms", "ms", None),
)

# Spans of the first operations are kept for the span file; the metrics use
# every operation.
KEEP_SPANS_OPS = 5


def _cli_span(args: tuple, kwargs: dict) -> str:
    return f"cli.{args[0][0]}"


def _workspace_span(args: tuple, kwargs: dict) -> str:
    basis = args[1] if len(args) > 1 else kwargs.get("basis", "phi")
    return f"oracle.build_workspace.{basis}"


# Spans named after an argument: the CLI subcommand, the oracle basis.
_NAMERS = {"cli.main": _cli_span, "oracle.build_workspace": _workspace_span}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.records: list[dict] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._op = -1
        self._acc: dict = {}
        self._extra: dict = {}
        self._patched: list[tuple] = []

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Replace every reference to each target inside the cvdisc package."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "cvdisc" or name.startswith("cvdisc."))]
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules[f"cvdisc.{module_name}"], func_name)
            wrapper = self._wrap(original, f"{module_name}.{func_name}")
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, base: str):
        is_simulate = base == "montecarlo.simulate"
        namer = _NAMERS.get(base)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = base if namer is None else namer(args, kwargs)
            if is_simulate:
                tracemalloc.start()
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
                if is_simulate:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    self._extra["peak_alloc_mb"] = max(self._extra.get("peak_alloc_mb", 0.0),
                                                       peak)
            if name == "oracle.build_workspace.fock":
                self._extra["fock_dim_sum"] = self._extra.get("fock_dim_sum", 0) + result.dimension
            return result

        return wrapper

    # -- spans -----------------------------------------------------------
    def _enter(self, name: str) -> None:
        parent = self._stack[-1][1] if self._stack else -1
        self._stack.append([name, self._next_id, parent, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        name, span_id, parent, start, child_time = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        acc = self._acc.setdefault(name, [0.0, 0.0, 0])
        acc[0] += duration
        acc[1] += duration - child_time
        acc[2] += 1
        if self._op <= KEEP_SPANS_OPS:
            self.spans.append((self._op, span_id, parent, name, start, end))

    def begin_op(self, op_index: int) -> None:
        self._op = op_index
        self._acc = {}
        self._extra = {}
        self._enter("op")

    def end_op(self) -> None:
        self._exit()
        self.records.append({"acc": self._acc, "extra": self._extra})

    # -- results ---------------------------------------------------------
    def per_layer(self, points_per_op: int, import_s: float, scales: list) -> dict:
        """Per-operation medians of the PER_LAYER metrics (0 where unused).

        Times are scaled by each operation's calibration factor `scales`, as
        the end-to-end times are; import_s comes scaled from the set-up probes.
        """
        records = self.records

        def per_op(source: str, key: str) -> float:
            values = []
            for rec, scale in zip(records, scales):
                if source == "extra":
                    values.append(float(rec["extra"].get(key, 0.0)))
                else:
                    acc = rec["acc"].get(key, (0.0, 0.0, 0))
                    values.append(1e3 * scale * acc[0 if source == "total" else 1])
            return statistics.median(values)

        calls = sum(rec["acc"].get("ensemble.coefficients", (0, 0, 0))[2] for rec in records)
        special = {
            "import.cvdisc_s": import_s,
            "ensemble.coefficients.calls_per_point": calls / (points_per_op * len(records)),
            "trace.op_p50_ms": per_op("total", "op"),
        }
        return {name: {"value": special[name] if how is None else per_op(*how), "unit": unit}
                for name, unit, how in PER_LAYER}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({"op": op, "id": span_id, "parent": parent,
                                         "name": name, "start": start, "end": end}) + "\n")
