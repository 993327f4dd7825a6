"""One fixed benchmark for pfkit: whole CLI jobs, or a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 40 --trace 0

Workloads (see jobs.py): `census`, `tables`, `verify`.

--trace 0 runs the workload's jobs as `python -m pfkit` child processes, one
at a time from this process (a closed loop with one client), in as many
whole passes as --seconds allow, at least one.  After every job it runs
the trivial job `--k 2 --ell 1` and then reference.py, a fixed pure-Python
job that uses no pfkit.  End-to-end metrics, as medians:

    wall_s       sum of the workload's job wall times
    setup_s      wall time of the trivial job
    peak_rss_mb  largest ru_maxrss over the workload's job processes

The shared machine this benchmark was built on changes speed by up to half,
for seconds to minutes at a time, which moves every time alike.  So wall_s
and setup_s are scaled to the reference speed: multiplied by REFERENCE_S
over the time of the reference job measured in the same run (see
`measure`).  A change to pfkit moves them; a change in machine speed moves
them less.  The unscaled medians are printed as bench.wall_raw_s and
bench.setup_raw_s.

--trace 1 runs each job once as a child and then twice in this process
through `pfkit.cli.main` (so through `pfkit.report.run` and
`to_text`/`to_json`), untraced and traced, and prints the per-layer metrics
listed in metrics.py.  It makes one pass whatever --seconds says.

Every job's exit code and stdout are checked (see harness.mismatch); a
mismatch counts as a failed operation and never stops the run.  The error
rate is `failed / attempted`.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; details of the run
(environment, every job, spans) are written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from statistics import mean, median

from harness import (
    RESULTS_DIR,
    SRC,
    calibrate,
    child_env,
    environment,
    load_expected,
    loadavg,
    mismatch,
    run_cli,
    run_reference,
    spawn,
)
from jobs import DEFAULT_SEED, SETUP_JOB, WORKLOADS, seeded_jobs
from metrics import PER_LAYER, units

SETUP_REPS = 4
# Nominal wall seconds of the reference job (reference.py): about its time
# on the machine the baseline was recorded on, in its faster phases.
REFERENCE_S = 0.18
IMPORT_REPS = 5


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, default_job: str, job: str, exit_code: int, stdout: bytes, where: str) -> None:
        self.attempted += 1
        why = mismatch(default_job, job, exit_code, stdout, self.expected)
        if why is not None:
            self.failures.append(f"{where}: {job}: {why}")


def run_checked(default_job: str, job: str, env: dict, tally: Tally, where: str):
    res = run_cli(job, env)
    tally.check(default_job, job, res.exit, res.stdout, where)
    return res


def measure(jobs, seconds: float, env: dict, tally: Tally, record: dict) -> dict:
    """End-to-end metrics over as many whole passes as fit in `seconds`.

    The trivial job and then the reference job run a few times up front and
    once after every job, so that their samples spread over the whole run.
    A job time is scaled by REFERENCE_S over the mean of the run's reference
    samples, a trivial job time by REFERENCE_S over the reference sample
    that follows it.
    """
    run_checked(SETUP_JOB, SETUP_JOB, env, tally, "warm-up")  # fills __pycache__
    setup, refs = [], []

    def sample() -> None:
        setup.append(run_checked(SETUP_JOB, SETUP_JOB, env, tally, "setup").wall_s)
        refs.append(run_reference(env))

    for _ in range(SETUP_REPS):
        sample()
    passes = []
    start = time.perf_counter()
    while True:
        calib = calibrate()
        pass_start = time.perf_counter()
        rows = []
        for default_job, job in jobs:
            res = run_checked(default_job, job, env, tally, f"pass {len(passes)}")
            rows.append({"job": job, "exit": res.exit, "wall_s": res.wall_s, "maxrss_mb": res.maxrss_mb})
            sample()
        now = time.perf_counter()
        passes.append({"calib_s": calib, "jobs": rows})
        # Start another pass only if one more as long as this one fits.
        if now - start + (now - pass_start) > seconds:
            break
    record.update(setup_s=setup, reference_s=refs, passes=passes)
    wall = median(sum(r["wall_s"] for r in p["jobs"]) for p in passes)
    return {
        "wall_s": wall * REFERENCE_S / mean(refs),
        "setup_s": median(s / ref for s, ref in zip(setup, refs)) * REFERENCE_S,
        "peak_rss_mb": median(max(r["maxrss_mb"] for r in p["jobs"]) for p in passes),
        "bench.wall_raw_s": wall,
        "bench.setup_raw_s": median(setup),
        "bench.reference_s": mean(refs),
        "bench.calib_s": median(p["calib_s"] for p in passes),
    }


def in_process(job: str, tracer=None, job_id: int | None = None):
    """Run one job through pfkit.cli.main in this process; returns
    (exit code, stdout bytes, seconds)."""
    import pfkit.cli

    argv = job.split()
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            if tracer is None:
                code = pfkit.cli.main(argv)
            else:
                code = tracer.job_span(job_id, lambda: pfkit.cli.main(argv))
        except SystemExit as exc:  # argparse rejected the job
            code = exc.code
    return code, out.getvalue().encode("utf-8"), time.perf_counter() - start


def trace(jobs, env: dict, tally: Tally, record: dict) -> dict:
    """Per-layer metrics from one traced pass in process, with the import
    cost of pfkit.cli, the CLI's overhead over the in-process run and the
    tracing overhead."""
    sys.path.insert(0, str(SRC))
    import tracing

    record["pfkit_file_in_process"] = tracing.pfkit.__file__
    metrics = {"bench.calib_s": calibrate()}
    imported, bare = [], []
    for _ in range(IMPORT_REPS):
        imported.append(spawn([sys.executable, "-c", "import pfkit.cli"], env).wall_s)
        bare.append(spawn([sys.executable, "-c", "pass"], env).wall_s)
    metrics["cli.import_s"] = median(imported) - median(bare)

    # Each job runs as a child, then in process untraced and traced, back
    # to back so that all three see the machine in the same state.  The
    # caches are emptied before each in-process run, as in a fresh child.
    cli_s, untraced_s, traced_s = [], [], []
    tracer = tracing.Tracer()
    for job_id, (default_job, job) in enumerate(jobs):
        cli_s.append(run_checked(default_job, job, env, tally, "cli").wall_s)
        tracing.clear_caches()
        code, stdout, secs = in_process(job)
        tally.check(default_job, job, code, stdout, "in-process")
        untraced_s.append(secs)
        tracing.clear_caches()
        tracer.install()
        try:
            code, stdout, secs = in_process(job, tracer, job_id)
        finally:
            tracer.uninstall()
        tally.check(default_job, job, code, stdout, "traced")
        tracer.counts["report.output_bytes"] += len(stdout)
        tracer.counts.update(tracing.cache_metrics())
        traced_s.append(secs)

    metrics.update(tracing.layer_metrics(tracer))
    uncovered = tracer.uncovered()
    metrics["cli.overhead_s"] = sum(cli_s) - sum(untraced_s)
    metrics["bench.trace_overhead_s"] = sum(traced_s) - sum(untraced_s)
    metrics["bench.uncovered_s"] = sum(u for _, u in uncovered.values())
    metrics["bench.uncovered_share"] = metrics["bench.uncovered_s"] / sum(
        t for t, _ in uncovered.values()
    )
    record.update(
        jobs=[
            {
                "job": job,
                "cli_s": c,
                "untraced_s": u,
                "traced_s": t,
                "uncovered_s": uncovered[i][1],
                "uncovered_share": uncovered[i][1] / uncovered[i][0],
                "top_span": tracer.top_span(i),
            }
            for i, ((_, job), c, u, t) in enumerate(zip(jobs, cli_s, untraced_s, traced_s))
        ],
        self_s=tracer.self_times(),
        spans=tracer.as_records(),
    )
    return metrics


def report_lines(workload: str, trace_on: bool, metrics: dict, tally: Tally, record: dict) -> list[str]:
    """Human-readable summary printed before the JSON line."""
    unit_of = {**PER_LAYER, **units(False)}
    lines = [f"workload {workload} ({'traced' if trace_on else 'untraced'})"]
    for name in sorted(metrics):
        lines.append(f"  {name:40s} {metrics[name]:>14.6g} {unit_of.get(name, 's')}")
    rate = len(tally.failures) / tally.attempted
    lines.append(f"  {'error_rate':40s} {rate:>14.6g} ratio ({len(tally.failures)} of {tally.attempted})")
    for job in record.get("jobs", []):
        lines.append(
            f"  job {job['job']!r}: cli {job['cli_s']:.3f} s, in process {job['untraced_s']:.3f} s, "
            f"traced {job['traced_s']:.3f} s, no span covers {job['uncovered_share']:.1%}, "
            f"largest layer span {job['top_span'][0]} {job['top_span'][1]:.3f} s"
        )
    lines.extend(f"  FAILED {why}" for why in tally.failures)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pfkit" / "__init__.py").is_file():
        print(f"error: no pfkit sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    env = child_env()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(env),
    }
    tally = Tally(load_expected())
    jobs = seeded_jobs(WORKLOADS[args.workload], args.seed)
    record["jobs_run"] = [job for _, job in jobs]
    if args.trace:
        metrics = trace(jobs, env, tally, record)
    else:
        metrics = measure(jobs, args.seconds, env, tally, record)
    record["environment"]["loadavg_end"] = loadavg()
    record.update(metrics=metrics, attempted=tally.attempted, failures=tally.failures)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in report_lines(args.workload, bool(args.trace), metrics, tally, record):
        print(line)

    wanted = units(bool(args.trace))
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
