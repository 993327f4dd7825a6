"""The benchmark harness self-test passes against the source tree.

It runs one small job per workload, checks the recorded exit codes and
report digests, and runs one traced in-process job, so a renamed layer
function or a changed report byte fails here.  The tracer's patch targets
and cache names are also resolved in process, so a renamed cache fails
here too, not only under `--trace 1`.
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


def test_tracer_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import pfkit.modules
    import tracing

    orbits = pfkit.modules.orbits
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pfkit.modules.orbits is not orbits
    finally:
        tracer.uninstall()
    assert pfkit.modules.orbits is orbits
    tracing.clear_caches()
    metrics = tracing.cache_metrics()
    assert set(metrics) == {
        f"{prefix}.{field}" for prefix in tracing.CACHES for field in ("hits", "misses", "currsize")
    }
    assert not any(metrics[f"{prefix}.currsize"] for prefix in tracing.CACHES)
