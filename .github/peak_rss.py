"""Run one `lens-lab run` under a peak-memory bound.

usage: python .github/peak_rss.py BOUND_MB CONFIG [lens-lab run options...]

Runs `timeout 60 lens-lab run CONFIG --set output_dir= ...`, prints the
peak resident set size of the run, and exits nonzero when the run fails or
its peak is above BOUND_MB.  The run writes no report unless the options
set an output_dir of their own: a later --set wins.
"""

import resource
import subprocess
import sys

bound = float(sys.argv[1])
subprocess.run(["timeout", "60", "lens-lab", "run", sys.argv[2], "--set", "output_dir=",
                *sys.argv[3:]], check=True)
mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {mb:.1f} MB")
sys.exit(mb > bound)
