"""Self-test of the benchmark harness, in its quick mode: one small job per
workload.  Run from the repository root (takes a few seconds):

    python3 perfbench/selftest.py

It checks that the cap-trip jobs count as successes when they exit 4, that
one deliberately wrong expected digest gives exactly one counted failure
and no crash, that seeded jobs pass the summary check, that a
traced in-process run reproduces the CLI digest, and that BENCHMARK.json
names exactly the metrics the benchmark prints.
"""

from __future__ import annotations

import json
import sys

from harness import ROOT, SRC, child_env, load_expected
from jobs import QUICK_JOBS, WORKLOADS, seeded_jobs
from metrics import END_TO_END, PER_LAYER
from run import Tally, in_process, run_checked


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"selftest FAILED: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main() -> None:
    env = child_env()
    expected = load_expected()

    tally = Tally(expected)
    for job in QUICK_JOBS.values():
        res = run_checked(job, job, env, tally, "quick")
        check(res.exit == 4, f"{job!r} exits 4")
    check(tally.attempted == 3 and not tally.failures, "cap trips count as successes")

    wrong = {job: dict(want) for job, want in expected.items()}
    wrong[QUICK_JOBS["census"]]["sha256"] = "0" * 64
    tally = Tally(wrong)
    for job in QUICK_JOBS.values():
        run_checked(job, job, env, tally, "quick")
    check(tally.attempted == 3 and len(tally.failures) == 1, "one wrong digest, one failure")

    small = [WORKLOADS["census"][1], WORKLOADS["census"][3]]  # text and JSON reports
    seed = next(s for s in range(1, 100) if all(d != j for d, j in seeded_jobs(small, s)))
    tally = Tally(expected)
    for default_job, job in seeded_jobs(small, seed):
        run_checked(default_job, job, env, tally, f"seed {seed}")
    check(not tally.failures, f"regenerated jobs at seed {seed} match the summaries: {tally.failures}")

    sys.path.insert(0, str(SRC))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, stdout, _ = in_process(small[1], tracer, 0)
    finally:
        tracer.uninstall()
    tally = Tally(expected)
    tally.check(small[1], small[1], code, stdout, "traced")
    check(not tally.failures, "traced in-process report has the CLI digest")
    seconds, calls = tracer.busy()
    check(calls["modules.orbits"] == 1 and seconds["report.run"] > 0, "spans recorded")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(
        {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END,
        "BENCHMARK.json end_to_end matches the untraced metrics",
    )
    check(
        {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER,
        "BENCHMARK.json per_layer matches the traced metrics",
    )
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload names match")
    print("selftest passed")


if __name__ == "__main__":
    main()
