"""The benchmark harness self-test passes against the source tree.

It runs one small job per workload, checks the recorded exit codes and
report digests, and runs one traced in-process job, so a renamed layer
function or a changed report byte fails here.  Every benchmark job is also
replayed in process against its recorded exit code, byte count and digest.
The tracer's patch targets and cache names are also resolved in process,
so a renamed cache fails here too, not only under `--trace 1`.
"""

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr
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


def test_every_benchmark_job_matches_its_recorded_digest(monkeypatch):
    # the CLI writes text, so stdout is a UTF-8 wrapper that keeps "\n" as it is
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import jobs
    from pfkit.cli import main

    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8"))["jobs"]
    for job in (jobs.SETUP_JOB, *(job for workload in jobs.WORKLOADS.values() for job in workload)):
        buffer = io.BytesIO()
        stdout = io.TextIOWrapper(buffer, encoding="utf-8", newline="")
        monkeypatch.setattr(sys, "stdout", stdout)
        with redirect_stderr(io.StringIO()):
            code = main(job.split())
        stdout.flush()
        data = buffer.getvalue()
        want = expected[job]
        got = (code, len(data), hashlib.sha256(data).hexdigest())
        assert got == (want["exit"], want["bytes"], want["sha256"]), job
