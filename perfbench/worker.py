"""One benchmark process: set up, warm up, then time passes over the jobs.

Started by run.py in a fresh interpreter.  Protocol on stdout: a line
``READY <scale>`` once set-up (lenslab import, job generation, one warm-up
pass) is done, then, unless --mode is ``setup``, one line of JSON with the
raw results.  The orchestrator turns those into metrics.

Modes:
  setup  stop after READY (used to repeat the set-up measurement)
  timed  closed loop, one client: passes until --seconds have elapsed and
         the workload's minimum sample count is reached; lenslab unwrapped
  trace  untraced passes for half of --seconds, then tracing.install and
         traced passes for the other half; spans are written to --spans
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from workloads import DEFAULT_SEED, WORKLOADS, make_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
CLI_TIMEOUT_S = 60

# Wall times on a shared machine follow the host's load: a fixed loop ran
# 1.8x slower in some seconds than in others on the 2-core machine this was
# tuned on, for minutes at a time.  So a fixed pure-Python probe (no lenslab
# code) runs between jobs, and each run also gets a scale,
# PROBE_REFERENCE_S / (mean of the probes just before and after it).
# Times times scale are seconds at the speed where the probe takes
# PROBE_REFERENCE_S; run.py reports those and keeps the raw times too.
PROBE_REFERENCE_S = 0.00025


def probe() -> float:
    """Best of three timings of a fixed Fraction loop."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        total = Fraction(0)
        for i in range(1, 120):
            total += Fraction(1, i % 97 + 1)
        best = min(best, perf_counter() - t0)
    return best


def digest_dir(path: Path) -> str:
    """Hash of every file a report wrote (report.json and the CSVs)."""
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def recorded_digests(workload: str, seed: int) -> dict:
    """Digests recorded on the seed code for this workload and seed, if any."""
    if not DIGESTS.is_file():
        return {}
    table = json.loads(DIGESTS.read_text()).get(workload, {})
    return table.get(str(seed)) or table.get("*") or {}


class Runner:
    """Runs jobs, checks their outputs and keeps the per-run records."""

    def __init__(self, workload: str, jobs: list[dict], recorded: dict):
        self.kind = WORKLOADS[workload].kind
        self.jobs = jobs
        self.recorded = recorded
        self.first_digest: dict[str, str] = {}
        self.tracer = None
        self.cli_dumps: list[Path] = []
        self.last_probe = None
        self.reset()
        if self.kind == "inprocess":
            from lenslab import config_from_mapping
            self.configs = {}
            for job in jobs:
                mapping = {"experiment": job["experiment"],
                           "backend": job["backend"],
                           "output_dir": f"out/{job['id']}",
                           **job["parameters"]}
                if job["system"]:
                    mapping["system"] = job["system"]
                self.configs[job["id"]] = config_from_mapping(mapping)
        else:
            for job in jobs:
                shutil.copy(ROOT / job["config"], Path(job["config"]).name)

    def reset(self):
        self.times: list[float] = []
        self.scales: list[float] = []
        self.failures: list[str] = []
        self.cli_overhead: list[float] = []

    def run_pass(self):
        for job in self.jobs:
            if self.tracer is not None:
                self.tracer.start_job(job["id"])
            before = self.last_probe or probe()
            ok, why, dt = (self._run_inprocess(job) if self.kind == "inprocess"
                           else self._run_cli(job))
            self.last_probe = probe()
            self.times.append(dt)
            self.scales.append(2 * PROBE_REFERENCE_S / (before + self.last_probe))
            if ok:
                ok, why = self._check_bytes(job)
            if not ok:
                self.failures.append(f"{job['id']}: {why}")

    def scale(self) -> float:
        """Time-weighted mean scale of the runs since the last reset."""
        return sum(t * s for t, s in zip(self.times, self.scales)) / sum(self.times)

    def _run_inprocess(self, job):
        from lenslab import run_experiment
        cfg = self.configs[job["id"]]
        t0 = perf_counter()
        try:
            report = run_experiment(cfg)
        except Exception as e:  # a crash is a failed run, not a benchmark error
            return False, f"raised {type(e).__name__}: {e}", perf_counter() - t0
        dt = perf_counter() - t0
        if not report.passed:
            failed = sorted(k for k, v in report.verdicts.items() if not v)
            return False, f"verdicts failed: {failed}", dt
        return True, "", dt

    def _run_cli(self, job):
        config = Path(job["config"]).name
        if self.tracer is None:
            cmd = [sys.executable, "-m", "lenslab.cli", "run", config]
        else:
            dump = Path(f"trace-{len(self.cli_dumps)}.json")
            self.cli_dumps.append(dump)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(dump),
                   job["id"], "run", config]
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"no verdict within {CLI_TIMEOUT_S} s", perf_counter() - t0
        dt = perf_counter() - t0
        if proc.returncode != 0 or "passed: true" not in proc.stdout.splitlines():
            return False, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}", dt
        for line in proc.stdout.splitlines():
            if line.startswith("duration_seconds:"):
                self.cli_overhead.append(dt - float(line.split(":")[1]))
        return True, "", dt

    def _check_bytes(self, job):
        """Reruns must repeat their bytes, and reports must match the digests
        recorded for this seed on the seed code."""
        digest = digest_dir(Path("out") / job["id"])
        first = self.first_digest.setdefault(job["id"], digest)
        if digest != first:
            return False, "bytes differ from the first run in this process"
        expected = self.recorded.get(job["id"])
        if expected is not None and digest != expected:
            return False, f"digest {digest} != recorded {expected}"
        return True, ""


def pass_times(runner: Runner, seconds: float) -> list[float]:
    """Whole passes until `seconds` have elapsed (at least one); returns the
    probe-scaled sum of each pass's run times."""
    times, t0 = [], perf_counter()
    while not times or perf_counter() - t0 < seconds:
        n = len(runner.times)
        runner.run_pass()
        times.append(sum(t * s for t, s in zip(runner.times[n:], runner.scales[n:])))
    return times


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "LENS_LAB_THREADS": os.environ.get("LENS_LAB_THREADS", "unset"),
        "PYTHONPATH": os.environ.get("PYTHONPATH"),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file for the spans of a trace run")
    args = ap.parse_args()

    import lenslab  # noqa: F401  (import cost is part of set-up)

    spec = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    jobs = make_jobs(args.workload, args.seed)
    runner = Runner(args.workload, jobs,
                    recorded_digests(args.workload, args.seed))
    runner.run_pass()                       # warm-up
    warmup_failures = list(runner.failures)
    print(f"READY {runner.scale()}", flush=True)
    if args.mode == "setup":
        return

    runner.reset()
    result = {"env": environment(), "jobs": len(jobs),
              "warmup_failures": warmup_failures}
    if args.mode == "timed":
        passes, t0 = 0, perf_counter()
        while (perf_counter() - t0 < args.seconds
               or len(runner.times) < spec.min_samples):
            runner.run_pass()
            passes += 1
        result["elapsed_s"] = perf_counter() - t0
        result["passes"] = passes
        usage = resource.RUSAGE_SELF if spec.kind == "inprocess" else resource.RUSAGE_CHILDREN
        result["peak_rss_kb"] = resource.getrusage(usage).ru_maxrss
    else:
        import tracing
        untraced = pass_times(runner, args.seconds / 2)
        cli_overhead = list(runner.cli_overhead)
        tracer = tracing.Tracer()
        if spec.kind == "inprocess":
            tracing.install(tracer)
        runner.tracer = tracer
        traced = pass_times(runner, args.seconds / 2)
        raws, spans = [tracer.raw()], list(tracer.spans)
        for dump in runner.cli_dumps:
            # Span ids restart in every CLI process; shift them apart.
            child, base = json.loads(dump.read_text()), tracer.n_spans
            raws.append(child["raw"])
            for span_id, name, start, end, parent, job in child["spans"]:
                spans.append((base + span_id, name, start, end,
                              base + parent if parent >= 0 else -1, job))
            tracer.n_spans += child["raw"]["spans_dropped"] + len(child["spans"])
        result.update({
            "passes": len(traced),
            "untraced_pass_s": statistics.median(untraced),
            "traced_pass_s": statistics.median(traced),
            "cli_overhead": cli_overhead,
            "raw": tracing.merge(raws),
        })
        with open(args.spans, "w") as f:
            f.write("id,name,start_s,end_s,parent,job\n")
            for span_id, name, start, end, parent, job in spans:
                f.write(f"{span_id},{name},{start:.9f},{end:.9f},{parent},{job}\n")
    result["attempted"] = len(runner.times)
    result["times"] = runner.times
    result["scales"] = runner.scales
    result["failures"] = runner.failures
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
