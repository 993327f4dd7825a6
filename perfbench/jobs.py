"""The fixed job matrix: three workloads of `python -m pfkit` argument lists.

Each job is one CLI invocation.  A workload seed replaces each job's
generator rows by another generating set of the same code (`regenerate`).
The code, and so the work, stays the same; only the generators echoed in
the report change.  A coordinate permutation would give an isomorphic code
with the same orbit sizes, but not the same work: the orbit sweep's cost
depends on the coordinate order (about 12 s against 17 s for the largest
census job).  The default seed is checked against exact digests; other
seeds against summaries that do not depend on the generating set (see
`summarize`).  Jobs without generators (all of `tables`) and single rows
with no other unit multiple (`5,0` at k=10) do not depend on the seed.
"""

from __future__ import annotations

import json
import random
import re
from math import gcd

DEFAULT_SEED = 0

# Trivial job whose wall time is `setup_s`: interpreter start, `import pfkit`,
# argparse and a tiny report.
SETUP_JOB = "--k 2 --ell 1"

WORKLOADS = {
    # The modules layer does ~97% of the work; branching and cosets do none.
    "census": (
        "--k 5 --ell 4 --gen 1,2,0,0 --gen 0,0,1,2 --analysis modules",
        "--k 6 --ell 3 --gen 1,1,1 --analysis modules",
        "--k 10 --ell 2 --gen 5,0 --analysis modules",
        "--k 4 --ell 4 --gen 2,2,0,0 --gen 0,0,2,2 --analysis modules --format json",
        "--k 5 --ell 6 --analysis modules",  # exits 4: 15^6 labels exceed the cap
    ),
    # Branching, the closed-form minimal-norm table and very large reports.
    "tables": (
        "--k 10 --ell 1 --analysis branch --coset 1:1100000000",
        "--k 9 --ell 1 --analysis branch --format json",
        "--k 14 --ell 1 --analysis lattice --format json",
        "--k 13 --ell 1 --gen 0 --analysis lattice",
        "--k 11 --ell 1 --analysis branch",  # exits 4: branch rank cap is 10
    ),
    # The same layers through the oracles and per-label calls.
    "verify": (
        "--k 10 --ell 1 --analysis verify --verify-max-k 10",
        "--k 6 --ell 3 --gen 1,1,1 --analysis verify",
        "--k 4 --ell 4 --gen 2,2,0,0 --gen 0,0,2,2 --analysis verify",
        "--k 10 --ell 1 --analysis verify",  # exits 4: default verify-max-k is 8
    ),
}

# The one small job per workload that the quick mode runs: the cap trips.
QUICK_JOBS = {name: jobs[-1] for name, jobs in WORKLOADS.items()}


def regenerate(job: str, rng: random.Random) -> str:
    """The job with its generator rows replaced by another generating set
    of the same code: each row gets random multiples of the others added and
    is scaled by a random unit of Z_k, then the rows are shuffled.  Each
    step is invertible, so the span is unchanged."""
    argv = job.split()
    k = int(argv[argv.index("--k") + 1])
    at = [pos + 1 for pos, flag in enumerate(argv) if flag == "--gen"]
    rows = [[int(x) for x in argv[pos].split(",")] for pos in at]
    units = [u for u in range(1, k) if gcd(u, k) == 1]
    for i in range(len(rows)):
        for other in rows[:i] + rows[i + 1 :]:
            c = rng.randrange(k)
            rows[i] = [(a + c * b) % k for a, b in zip(rows[i], other)]
        u = rng.choice(units)
        rows[i] = [u * a % k for a in rows[i]]
    rng.shuffle(rows)
    for pos, row in zip(at, rows):
        argv[pos] = ",".join(map(str, row))
    return " ".join(argv)


def seeded_jobs(jobs, seed: int) -> list[tuple[str, str]]:
    """(default job, job as run) pairs for a workload seed."""
    if seed == DEFAULT_SEED:
        return [(job, job) for job in jobs]
    rng = random.Random(seed)
    return [(job, regenerate(job, rng)) for job in jobs]


def _histogram(values) -> list[list[int]]:
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    return [[v, counts[v]] for v in sorted(counts)]


def _text_rows(lines: list[str], title: str) -> list[list[str]]:
    """Whitespace-split rows of the table under a text-report section title."""
    for pos, line in enumerate(lines):
        if line.startswith(title):
            rows = []
            for row in lines[pos + 3 :]:  # skip the header and dash lines
                if not row.strip():
                    break
                rows.append(row.split())
            return rows
    return []


def summarize(stdout: bytes) -> dict:
    """Summary of a report that does not depend on the generating set: case,
    code size, orbit count and sorted orbit sizes, sorted per-character
    twisted counts, and the verify suites.  Raises ValueError on a report
    it cannot read."""
    text = stdout.decode("utf-8")
    if text.startswith("{"):
        report = json.loads(text)
        cls = report["classification"]
        case, size = cls["case"], cls["size"]
        sizes = [r["size"] for r in (report["orbits"] or {"rows": []})["rows"]]
        counts = [r["count"] for r in (report["counts"] or {"rows": []})["rows"]]
        suites = [[v["name"], v["pass"], v["detail"]] for v in report["verify"] or []]
    else:
        lines = text.splitlines()
        head = re.search(r"^classification: (\S+) size=(\d+)", text, re.M)
        if head is None:
            raise ValueError("no classification line")
        case, size = head.group(1), int(head.group(2))
        sizes = [int(r[1]) for r in _text_rows(lines, "orbits (acting code:")]
        counts = [int(r[1]) for r in _text_rows(lines, "twisted module counts")]
        suites = []
        for match in re.finditer(r"^  (\w+): (pass|FAIL)(?: -- (.*))?$", text, re.M):
            suites.append([match.group(1), match.group(2) == "pass", match.group(3)])
    return {
        "case": case,
        "size": size,
        "orbit_count": len(sizes),
        "orbit_sizes": _histogram(sizes),
        "character_counts": _histogram(counts),
        "verify": suites,
    }
