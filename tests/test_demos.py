"""The scripts under demos/ and the README's library quick start run to
completion against the source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    """The finished `python *args` child, with the source tree on its path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    result = run_python([str(script)])
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n.*?```python\n(.*?)```", readme, re.S)
    result = run_python(["-c", block.group(1)])
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True 6\nFalse 2\n"  # as its closing comment says
