"""lenslab benchmark: one workload, one seed, one result line.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1]

Run from the repository root; lenslab is imported from src/ (it does not
need to be installed).  With --trace 0 the last line of stdout is a JSON
object carrying the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a separate traced run.  Details (environment, tail
percentile and sample count, failures) go to stderr and to
perfbench/out/<workload>-seed<N>-trace<T>.json; a traced run also writes
its spans there as CSV.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORK = HERE / ".work"
SETUP_REPEATS = 3      # fresh interpreters per run; setup_s is their median
DEADLINE_S = 170.0     # the whole run, set-ups included


class BenchError(Exception):
    pass


def kill_group(pid: int):
    """Kill a worker and any CLI process it started."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("LENS_LAB_THREADS", None)     # keeps experiments._pmap serial
    env["PYTHONPATH"] = str(ROOT / "src")
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = env.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= nproc:
            env[var] = str(nproc)
    return env


def run_worker(args, mode: str, workdir: Path, deadline: float, env: dict,
               spans: Path | None = None) -> tuple[float, float, dict | None]:
    """Start one worker; return (set-up seconds, their scale, result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode,
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT, start_new_session=True)
    watchdog = threading.Timer(max(deadline - monotonic(), 1.0), kill_group,
                               (proc.pid,))
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group(proc.pid)
            proc.wait()
        proc.stdout.close()
    word, _, scale = ready.partition(" ")
    if word != "READY" or code != 0:
        raise BenchError(f"worker ({mode}) exited with code {code}")
    result = json.loads(rest.strip().splitlines()[-1]) if rest.strip() else None
    return setup_s, float(scale), result


def timings(workload, setups, times, elapsed) -> dict:
    times = sorted(times)
    pct = workload.tail_percentile
    return {
        "runs_per_s": len(times) / elapsed,
        "run_p50_s": statistics.median(times),
        "run_tail_s": statistics.quantiles(times, n=100, method="inclusive")[pct - 1],
        "setup_s": statistics.median(setups),
    }


def end_to_end(workload, setups: list[tuple[float, float]], res: dict) -> tuple[dict, dict]:
    """Metrics in probe-scaled seconds (see worker.PROBE_REFERENCE_S)."""
    raw_times = res["times"]
    times = [t * s for t, s in zip(raw_times, res["scales"])]
    elapsed = res["elapsed_s"] * sum(times) / sum(raw_times)
    scaled = timings(workload, [t * s for t, s in setups], times, elapsed)
    units = {"runs_per_s": "1/s", "run_p50_s": "s", "run_tail_s": "s", "setup_s": "s"}
    metrics = {name: (value, units[name]) for name, value in scaled.items()}
    metrics["peak_rss_mb"] = (res["peak_rss_kb"] / 1024, "MB")
    details = {
        "run_tail_s": {"percentile": workload.tail_percentile, "samples": len(times),
                       "beyond": sum(t > scaled["run_tail_s"] for t in times)},
        "raw_wall_clock": timings(workload, [t for t, _ in setups], raw_times,
                                  res["elapsed_s"]),
        "mean_scale": sum(times) / sum(raw_times),
        "setup_samples_s": setups,
        "passes": res["passes"],
        "jobs_per_pass": res["jobs"],
    }
    return metrics, details


def per_layer(res: dict) -> tuple[dict, dict]:
    import tracing
    overhead = res["cli_overhead"]
    values = tracing.per_layer_values(
        res["raw"], res["passes"],
        cli_overhead_s=statistics.median(overhead) if overhead else 0.0,
        overhead_ratio=res["traced_pass_s"] / res["untraced_pass_s"])
    units = {name: unit for name, unit, _ in tracing.per_layer_catalogue()}
    metrics = {name: (values[name], units[name]) for name in units}
    details = {"passes": res["passes"], "untraced_pass_s": res["untraced_pass_s"],
               "traced_pass_s": res["traced_pass_s"],
               "spans_dropped": res["raw"]["spans_dropped"]}
    return metrics, details


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Let SIGTERM unwind through the finally blocks that stop the workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "lenslab" / "__init__.py").is_file():
        print(f"error: no lenslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    deadline = monotonic() + DEADLINE_S
    env = worker_env()
    run_dir = WORK / f"run-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            _, _, res = run_worker(args, "trace", run_dir / "trace", deadline, env,
                                   spans=OUT / f"{tag}-spans.csv")
            metrics, details = per_layer(res)
        else:
            setups = [run_worker(args, "setup", run_dir / f"setup{i}", deadline, env)[:2]
                      for i in range(SETUP_REPEATS - 1)]
            setup_s, scale, res = run_worker(args, "timed", run_dir / "timed", deadline, env)
            metrics, details = end_to_end(workload, setups + [(setup_s, scale)], res)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # The warm-up pass of the measured process counts as attempted runs too.
    failures = res["warmup_failures"] + res["failures"]
    attempted = res["jobs"] + res["attempted"]
    failed = len(failures)
    details.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "failures": failures[:20],
        "env": res["env"],
    })
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"metrics": {k: v for k, (v, _) in metrics.items()}, "details": details},
        indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}", file=sys.stderr)
    print(f"details: {json.dumps(details)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
