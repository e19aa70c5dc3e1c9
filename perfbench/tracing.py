"""Per-layer tracing of lenslab, done entirely from outside the package.

`install` replaces each listed function with a timing wrapper in every
lenslab module namespace that binds it (modules import helpers with
``from .couplings import coupling_distance`` and the package root
re-exports them), wraps each registered experiment runner and
``ExperimentReport.write``, and attaches counters computed from the
arguments and results.  Spans stay in memory; the worker (or
traced_cli.py) writes them out when the run ends.

Self time is a span's duration minus the durations of its wrapped
children.  The wrappers' own bookkeeping (counter scans included) is timed
and taken out of every enclosing span, so self times estimate the untraced
cost; the remaining tracing cost shows in the overhead ratio.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import defaultdict
from time import perf_counter

from workloads import EXPERIMENTS

_INT64_SAFE = 2**62  # the bound exact._int_matmul uses for its int64 path

LAYERS = {
    "exact": ("mat_mul", "mat_conjugate", "mat_power", "split_common",
              "join_scaled", "_int_matmul", "l1_norm", "max_abs",
              "exact_nullspace"),
    "couplings": ("coupling_distance", "validate_coupling", "random_coupling",
                  "repair_to_polytope"),
    "lens": ("lens_step", "one_sided_step", "lens_iterate", "orbit",
             "cesaro_average", "fixed_point_space", "detect_period",
             "markov_commutation_residual"),
    "partitions": ("system_power", "system_from_matrix",
                   "system_from_permutation"),
    "zoo": ("parse_system_spec", "bernoulli_system",
            "group_rotation_conjugation", "skew_Tbar_conjugation"),
    "constructions": ("entropy_factor_F", "rigidity_probe",
                      "transitivity_witness", "realize_coupling_as_iet",
                      "bernoulli_cyclic_commuter"),
    "experiments": ("run_experiment", "validate_config"),
}

# Spans kept in memory per process; later spans are counted, not stored.
SPAN_CAP = 400_000


class Tracer:
    def __init__(self):
        self.spans = []
        self.n_spans = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        self.job = ""
        self._stack = []
        self._overhead = 0.0
        self._seen_arrays = set()

    def start_job(self, job_id: str):
        self.job = job_id
        self._seen_arrays = set()

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            t0 = perf_counter()
            if before is not None:
                before(self, args)
            span_id = self.n_spans
            self.n_spans += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0, self._overhead]
            self._stack.append(frame)
            t1 = perf_counter()
            self._overhead += t1 - t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                self._stack.pop()
                duration = (t2 - t1) - (self._overhead - frame[2])
                self.calls[name] += 1
                self.incl_s[name] += duration
                self.self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, name, t1, t2, parent, self.job))
            if after is not None:
                after(self, args, result)
            self._overhead += perf_counter() - t2
            return result

        traced.__wrapped__ = fn
        return traced

    def raw(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "spans_dropped": self.n_spans - len(self.spans),
        }


# Counters, computed from arguments and results.

def _int_matmul_before(t: Tracer, args):
    a, b = args[0], args[1]
    if a.ndim == 1:
        t.counts["exact._int_matmul.madds"] += b.size
    else:
        t.counts["exact._int_matmul.madds"] += a.size * (b.shape[1] if b.ndim == 2 else 1)
    ma = max((abs(int(x)) for x in a.ravel()), default=0)
    mb = max((abs(int(x)) for x in b.ravel()), default=0)
    if ma and mb and a.shape[-1] * ma * mb < _INT64_SAFE:
        t.counts["exact._int_matmul.int64_calls"] += 1


def _split_common_before(t: Tracer, args):
    a = args[0]
    t.counts["exact.split_common.cells"] += a.size
    if not a.flags.writeable:
        key = (a.__array_interface__["data"][0], a.shape, a.strides)
        if key in t._seen_arrays:
            t.counts["exact.split_common.repeats"] += 1
        t._seen_arrays.add(key)


def _denominator_bits_after(t: Tracer, args, result):
    if result.dtype == object and result.size:
        bits = max(x.denominator.bit_length() for x in result.ravel())
        if bits > t.maxima["exact.max_denominator_bits"]:
            t.maxima["exact.max_denominator_bits"] = bits


def _lens_step_before(t: Tracer, args):
    if not args[0].exact:
        t.counts["lens.lens_step.dense_steps"] += 1


def _orbit_after(t: Tracer, args, result):
    worst = max(result.repair_residuals, default=0.0)
    if worst > t.maxima["couplings.repair_residual_max"]:
        t.maxima["couplings.repair_residual_max"] = float(worst)


def _report_write_after(t: Tracer, args, result):
    t.counts["experiments.report_bytes"] += sum(p.stat().st_size for p in result)


_HOOKS = {
    "exact._int_matmul": (_int_matmul_before, None),
    "exact.split_common": (_split_common_before, None),
    "exact.mat_mul": (None, _denominator_bits_after),
    "exact.mat_conjugate": (None, _denominator_bits_after),
    "lens.lens_step": (_lens_step_before, None),
    "lens.orbit": (None, _orbit_after),
}


def install(tracer: Tracer):
    """Wrap every listed function wherever a lenslab module binds it."""
    from lenslab import experiments  # loads the package and every submodule

    modules = [m for n, m in sys.modules.items()
               if n == "lenslab" or n.startswith("lenslab.")]
    for layer, names in LAYERS.items():
        home = sys.modules[f"lenslab.{layer}"]
        for fname in names:
            name = f"{layer}.{fname}"
            original = getattr(home, fname)
            before, after = _HOOKS.get(name, (None, None))
            wrapped = tracer.wrap(name, original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    experiments.ExperimentReport.write = tracer.wrap(
        "experiments.report_write", experiments.ExperimentReport.write,
        after=_report_write_after)
    for name, spec in list(experiments.REGISTRY.items()):
        experiments.REGISTRY[name] = dataclasses.replace(
            spec, runner=tracer.wrap(f"experiments.{name}", spec.runner))


def merge(raws: list[dict]) -> dict:
    """Combine raw tracer data from several processes."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "incl_s": defaultdict(float), "counts": defaultdict(int),
           "maxima": defaultdict(float), "spans_dropped": 0}
    for raw in raws:
        for key in ("calls", "self_s", "incl_s", "counts"):
            for name, value in raw[key].items():
                out[key][name] += value
        for name, value in raw["maxima"].items():
            out["maxima"][name] = max(out["maxima"][name], value)
        out["spans_dropped"] += raw["spans_dropped"]
    return out


# Per-layer metric catalogue: (name, unit, better).  Counts and times are
# per pass over the workload's job list; shares and maxima are over the run.

def per_layer_catalogue() -> list[tuple[str, str, str]]:
    out = []
    for layer, names in LAYERS.items():
        if layer == "experiments":
            continue
        for fname in names:
            out.append((f"{layer}.{fname}.calls", "count", "lower"))
            out.append((f"{layer}.{fname}.self_s", "s", "lower"))
        if layer == "exact":
            out += [("exact._int_matmul.madds", "count", "lower"),
                    ("exact._int_matmul.int64_share", "share", "higher"),
                    ("exact.split_common.cells", "count", "lower"),
                    ("exact.split_common.repeat_share", "share", "lower"),
                    ("exact.max_denominator_bits", "bits", "lower")]
        elif layer == "couplings":
            out.append(("couplings.repair_residual_max", "L1", "lower"))
        elif layer == "lens":
            out.append(("lens.lens_step.dense_share", "share", "lower"))
    out += [("experiments.run_experiment.self_s", "s", "lower"),
            ("experiments.validate_config.self_s", "s", "lower"),
            ("experiments.report_write.self_s", "s", "lower"),
            ("experiments.report_bytes", "bytes", "lower")]
    out += [(f"experiments.{name}.s", "s", "lower") for name in EXPERIMENTS]
    out += [("cli.overhead_s", "s", "lower"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return out


def per_layer_values(raw: dict, passes: int, cli_overhead_s: float,
                     overhead_ratio: float) -> dict:
    calls, counts, maxima = raw["calls"], raw["counts"], raw["maxima"]

    def share(num, den):
        return num / den if den else 0.0

    values = {}
    for name, unit, _ in per_layer_catalogue():
        fn, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls.get(fn, 0) / passes
        elif field == "self_s":
            values[name] = raw["self_s"].get(fn, 0.0) / passes
        elif name.startswith("experiments.") and field == "s":
            values[name] = raw["incl_s"].get(fn, 0.0) / passes
    values.update({
        "exact._int_matmul.madds": counts.get("exact._int_matmul.madds", 0) / passes,
        "exact._int_matmul.int64_share": share(
            counts.get("exact._int_matmul.int64_calls", 0),
            calls.get("exact._int_matmul", 0)),
        "exact.split_common.cells": counts.get("exact.split_common.cells", 0) / passes,
        "exact.split_common.repeat_share": share(
            counts.get("exact.split_common.repeats", 0),
            calls.get("exact.split_common", 0)),
        "exact.max_denominator_bits": maxima.get("exact.max_denominator_bits", 0),
        "couplings.repair_residual_max": maxima.get("couplings.repair_residual_max", 0.0),
        "lens.lens_step.dense_share": share(
            counts.get("lens.lens_step.dense_steps", 0),
            calls.get("lens.lens_step", 0)),
        "experiments.report_bytes": counts.get("experiments.report_bytes", 0) / passes,
        "cli.overhead_s": cli_overhead_s,
        "trace.overhead_ratio": overhead_ratio,
    })
    return values
