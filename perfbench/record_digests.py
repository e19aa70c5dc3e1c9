"""Record the report digests that the benchmark's output check compares to.

usage: python3 perfbench/record_digests.py    (from the repository root)

Runs one pass of each in-process workload for each seed in RECORDED_SEEDS,
and of cli-configs once (its configs do not depend on the seed), and writes
perfbench/digests.json.  Reports are meant to stay byte-identical, so
re-record only for a change that is meant to alter report bytes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ["PYTHONPATH"] = str(ROOT / "src")   # for the CLI subprocesses
os.environ.pop("LENS_LAB_THREADS", None)
sys.path.insert(0, str(ROOT / "src"))

from worker import DIGESTS, Runner  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

RECORDED_SEEDS = range(16)


def record(name: str, seed: int, workdir: Path) -> dict:
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    runner = Runner(name, make_jobs(name, seed), {})
    runner.run_pass()
    if runner.failures:
        raise SystemExit(f"{name} seed {seed}: {runner.failures}")
    return dict(sorted(runner.first_digest.items()))


def main():
    work = HERE / ".work" / f"record-{os.getpid()}"
    table = {}
    try:
        for name, spec in WORKLOADS.items():
            if spec.kind == "cli":
                table[name] = {"*": record(name, 0, work / name)}
            else:
                table[name] = {str(seed): record(name, seed, work / f"{name}-{seed}")
                               for seed in RECORDED_SEEDS}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")


if __name__ == "__main__":
    main()
