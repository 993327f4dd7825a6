"""Record the expected exit code, stdout digest and summary of every job.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record.py

It writes perfbench/expected.json.  Reports are byte-deterministic, so a
later commit that changes any digest changes what pfkit prints.
"""

from __future__ import annotations

import json
import platform

from harness import EXPECTED_FILE, git_commit, run_cli, child_env
from jobs import SETUP_JOB, WORKLOADS, summarize


def main() -> None:
    env = child_env()
    jobs = {}
    for job in (SETUP_JOB, *(j for js in WORKLOADS.values() for j in js)):
        res = run_cli(job, env)
        jobs[job] = {
            "exit": res.exit,
            "sha256": res.sha256,
            "bytes": len(res.stdout),
            "summary": summarize(res.stdout) if "--gen" in job and res.exit == 0 else None,
        }
        print(f"{res.exit}  {len(res.stdout):>10} B  {res.wall_s:7.2f} s  {job}")
    record = {"git_commit": git_commit(), "python": platform.python_version(), "jobs": jobs}
    with open(EXPECTED_FILE, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
