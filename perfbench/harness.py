"""Running CLI jobs as child processes and checking what they print.

Every child is `sys.executable -m pfkit` with PYTHONPATH set to the
checkout's `src` and PFKIT_THREADS removed, so the code under test is always
the checkout's and verify always takes its single-worker path.  A job's wall
time runs from spawn until all of stdout is read and the child is reaped;
its peak RSS is the child's own `ru_maxrss`, read with `os.wait4`.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from jobs import DEFAULT_SEED, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_FILE = BENCH_DIR / "expected.json"
RESULTS_DIR = BENCH_DIR / "results"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PFKIT_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class JobResult:
    exit: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_mb: float

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


def spawn(argv: list[str], env: dict) -> JobResult:
    """Run one child to completion, reading both pipes as they fill."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: []}
    try:
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                for key, _ in sel.select():
                    data = os.read(key.fd, 1 << 20)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return JobResult(
        proc.returncode,
        b"".join(chunks[out_fd]),
        b"".join(chunks[err_fd]),
        wall,
        usage.ru_maxrss / 1024,  # Linux reports KiB
    )


def run_cli(job: str, env: dict) -> JobResult:
    return spawn([sys.executable, "-m", "pfkit", *job.split()], env)


def run_reference(env: dict) -> float:
    """Wall seconds of the fixed reference job (reference.py)."""
    res = spawn([sys.executable, str(BENCH_DIR / "reference.py")], env)
    if res.exit != 0:
        raise RuntimeError(f"reference job failed: {res.stderr.decode()}")
    return res.wall_s


def load_expected() -> dict:
    with open(EXPECTED_FILE, encoding="utf-8") as handle:
        return json.load(handle)["jobs"]


def mismatch(default_job: str, job: str, exit_code: int, stdout: bytes, expected: dict) -> str | None:
    """Why a job's result is wrong, or None when it is right.

    A job run as recorded must reproduce the recorded exit code and stdout
    digest; a job with regenerated generators must reproduce the recorded
    exit code and summary.
    """
    want = expected.get(default_job)
    if want is None:
        return "no expected result recorded"
    if exit_code != want["exit"]:
        return f"exit {exit_code}, expected {want['exit']}"
    if job == default_job:
        if hashlib.sha256(stdout).hexdigest() != want["sha256"]:
            return f"sha256 differs ({len(stdout)} bytes, expected {want['bytes']})"
        return None
    try:
        got = summarize(stdout)
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return f"unreadable report: {err!r}"
    if got != want["summary"]:
        return "summary differs"
    return None


def calibrate(n: int = 35_000) -> float:
    """Seconds for a fixed pure-Python Fraction loop (~0.2 s): a diagnostic
    that tells a slow machine apart from a slow program."""
    start = time.perf_counter()
    hits = 0
    for i in range(1, n):
        hits += Fraction(i % 97, 101) * Fraction(7, 11 + i % 13) == Fraction(1, 3)
    return time.perf_counter() - start


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def pfkit_file(env: dict) -> str:
    """The pfkit a child imports; raises RuntimeError unless it is the
    checkout's own copy."""
    res = spawn([sys.executable, "-c", "import pfkit; print(pfkit.__file__)"], env)
    path = res.stdout.decode().strip()
    if res.exit != 0 or not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"children import pfkit from {path!r}, not {SRC}")
    return path


def environment(env: dict) -> dict:
    return {
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "pfkit_file": pfkit_file(env),
        "loadavg_start": loadavg(),
        "default_seed": DEFAULT_SEED,
    }
