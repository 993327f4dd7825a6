"""The benchmark harness self-test passes against the source tree.

It runs one small job per workload, checks the recorded exit codes and
report digests, and runs one traced in-process job, so a renamed layer
function or a changed report byte fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
