"""
Scripted experiments and the command-line runner
================================================

Every phenomenon in the earlier demos is packaged as a named experiment:
a config names the experiment, a system, and parameters; running it
produces scalars, series, and pass/fail verdicts, written as stable JSON
and CSV.  The same configs drive the `lens-lab` command line tool
(`lens-lab list`, `lens-lab validate cfg`, `lens-lab run cfg`).
"""

import json
import shutil
import tempfile
from pathlib import Path

from lenslab import config_from_mapping, list_experiments, run_experiment, value_str

# -- the registry ------------------------------------------------------------
print("registered experiments:")
for entry in list_experiments():
    print(f"  {entry['name']:22s} {entry['description']}")

# -- one experiment, programmatically ----------------------------------------
outdir = Path(tempfile.mkdtemp(prefix="lenslab-demo-"))
cfg = config_from_mapping({
    "experiment": "rigidity-sweep",
    "system": "rot:k=6,s=1",
    "output_dir": str(outdir),
    "blocks": "1,2,3",
    "n_max": "6",
    "expect_return_at": "6",
})
report = run_experiment(cfg)
print("\nrigidity-sweep on rot:k=6,s=1")
print("  passed:", report.passed)
print("  scalars:", {k: value_str(v) for k, v in report.scalars.items()})
print("  verdicts:", report.verdicts)

# -- the files it wrote --------------------------------------------------------
print("\nfiles under", outdir)
for f in sorted(outdir.iterdir()):
    print("  ", f.name)
doc = json.loads((outdir / "report.json").read_text())
print("report.json keys:", sorted(doc))
print("series in the report:", sorted(doc["series"]))

# Reruns of the same config are byte-identical (timing lives only on the
# in-memory report, never in the files).
first = (outdir / "report.json").read_bytes()
run_experiment(cfg)
print("rerun is byte-identical:", (outdir / "report.json").read_bytes() == first)
shutil.rmtree(outdir)

# -- the same thing from a shell ----------------------------------------------
print("""
equivalent shell session:
  $ lens-lab list
  $ lens-lab validate configs/rigidity-sweep.cfg
  $ lens-lab run configs/rigidity-sweep.cfg --set output_dir=/tmp/out
exit codes: 0 all verdicts pass, 1 a verdict failed, 2 bad config,
3 resolution or size guard refused the run, 4 the run crashed.""")
