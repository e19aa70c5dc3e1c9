"""Each demo's stdout, pinned byte for byte against tests/golden/demos."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_golden(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # Demo 09 writes its report under a fresh temp directory.
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = re.sub(r"^files under .*$", "files under <tmp>", proc.stdout, flags=re.M)
    assert out == (GOLDEN / f"{demo.name[:2]}.txt").read_text()


def test_every_demo_has_a_golden_file():
    assert [p.name[:2] for p in DEMOS] == sorted(p.stem for p in GOLDEN.glob("*.txt"))
