"""Per-layer spans around pfkit's public functions, from outside the package.

`Tracer.install` replaces module attributes that callers look up at call
time (for example `pfkit.modules.orbits`, `pfkit.report.span`,
`pfkit.verify.verify_*`) with wrappers that record spans, and `uninstall`
puts the originals back.  A span records name, start, end, parent and job
id; spans stay in memory until the run ends.  Functions called once per
label (`cosets.min_norm_data`, `modules.induced_decomposition`) get one
aggregated span per parent, with a call count.  Hotter functions (`fuse`,
`sc_fuse`, `pf_canonicalize`, `character_of`) are never wrapped; their cost
shows as the parent's self time and in `cache_info()` deltas.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import pfkit.branching
import pfkit.cli
import pfkit.cosets
import pfkit.modules
import pfkit.parafermion
import pfkit.report
import pfkit.verify
import pfkit.zkcodes
from pfkit.parafermion import irr_count

from metrics import PER_LAYER, SUITES

PACKAGE_MODULES = (
    pfkit.zkcodes,
    pfkit.cosets,
    pfkit.parafermion,
    pfkit.branching,
    pfkit.modules,
    pfkit.verify,
    pfkit.report,
    pfkit.cli,
)

# A job's root spans.  The part of a job's time that their direct children
# do not cover is orchestration in `cli.main` and `report.run`.
ROOTS = ("cli.main", "report.run")

# Caches read with cache_info(): metric prefix -> (module, attribute).
CACHES = {
    "modules.cache.dual_words": (pfkit.modules, "_dual_words"),
    "cosets.cache.representative": (pfkit.cosets, "representative"),
    "cosets.cache.residue_table": (pfkit.cosets, "_residue_table"),
    "parafermion.cache.pf_weight": (pfkit.parafermion, "pf_weight"),
    "branching.cache.vir_h": (pfkit.branching, "vir_h"),
}


def clear_caches() -> None:
    """Empty every lru_cache in the package, so that an in-process job starts
    as cold as a fresh CLI process."""
    for module in PACKAGE_MODULES:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _count_orbits(counts, args, result):
    code = args[0]
    counts["modules.labels_scanned"] += irr_count(code.k) ** code.ell
    counts["modules.orbit_count"] += len(result)
    counts["modules.orbit_members"] += sum(orb.size for orb in result)


def _count_dual(counts, args, result):
    counts["zkcodes.dual_words"] += result.size


def _count_components(counts, args, result):
    counts["branching.components"] += len(result)


def _count_failed(counts, args, result):
    counts["verify.suites_failed"] += not result.passed


class Tracer:
    """Spans and counts of one traced run, and the wrappers that record them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job, calls]
        self.stack: list[int] = []
        self.pending: dict[int, dict[str, list]] = {}  # parent -> name -> [start, busy, calls]
        self.counts: Counter = Counter()
        self.job: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, 1])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()
        for name, (start, busy, calls) in self.pending.pop(sid, {}).items():
            self.spans.append([name, start, start + busy, sid, self.job, calls])

    def _span(self, name, fn, count):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _aggregated(self, name, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                per_parent = self.pending.setdefault(self.stack[-1], {})
                acc = per_parent.setdefault(name, [start, 0.0, 0])
                acc[1] += time.perf_counter() - start
                acc[2] += 1

        return traced

    def _patch(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        m, c, v, r = pfkit.modules, pfkit.cosets, pfkit.verify, pfkit.report
        spans = [
            ("zkcodes.span", [(r, "span")], None),
            ("zkcodes.dual_code", [(m, "dual_code")], _count_dual),
            ("zkcodes.code_from_words", [(m, "code_from_words")], None),
            ("modules.orbits", [(m, "orbits")], _count_orbits),
            ("modules.characters", [(m, "characters")], None),
            ("modules.count_twisted", [(m, "count_twisted")], None),
            ("modules.even_part_code", [(m, "even_part_code")], None),
            ("modules.caseB_modules", [(m, "caseB_modules")], None),
            ("cosets.build_code_lattice", [(c, "build_code_lattice"), (v, "build_code_lattice")], None),
            ("branching.branch", [(pfkit.branching, "branch")], _count_components),
            ("verify.run_suites", [(v, "run_suites")], None),
            *((f"verify.{name}", [(v, fn)], _count_failed) for fn, name in SUITES.items()),
            ("report.run", [(pfkit.cli, "run")], None),
            ("report.to_text", [(pfkit.cli, "to_text")], None),
            ("report.to_json", [(pfkit.cli, "to_json")], None),
        ]
        for name, targets, count in spans:
            for module, attr in targets:
                self._patch(module, attr, self._span(name, getattr(module, attr), count))
        aggregated = [
            ("cosets.min_norm_data", [(c, "min_norm_data"), (v, "min_norm_data")]),
            ("modules.induced_decomposition", [(m, "induced_decomposition")]),
        ]
        for name, targets in aggregated:
            for module, attr in targets:
                self._patch(module, attr, self._aggregated(name, getattr(module, attr)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def job_span(self, job: int, fn):
        """Run fn() as job `job`, under the root span `cli.main`."""
        self.job = job
        sid = self.open("cli.main")
        try:
            return fn()
        finally:
            self.close(sid)

    def busy(self) -> tuple[dict, Counter]:
        """Inclusive seconds and call counts per span name."""
        seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, _, _, n in self.spans:
            seconds[name] += end - start
            calls[name] += n
        return seconds, calls

    def self_times(self, job: int | None = None) -> dict[str, float]:
        """Span duration minus the time its children cover, per name, over
        all jobs or one."""
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, span_job, _) in enumerate(self.spans):
            if job is None or span_job == job:
                out[name] += end - start - child_time[sid]
        return dict(out)

    def uncovered(self) -> dict[int, tuple[float, float]]:
        """Per job: (job seconds, seconds no layer span below the roots covers)."""
        jobs: dict[int, list[float]] = {}
        for name, start, end, parent, job, _ in self.spans:
            if name == "cli.main":
                jobs.setdefault(job, [0.0, 0.0])[0] += end - start
            elif name not in ROOTS and self.spans[parent][0] in ROOTS:
                jobs.setdefault(job, [0.0, 0.0])[1] += end - start
        return {job: (total, total - covered) for job, (total, covered) in jobs.items()}

    def top_span(self, job: int) -> tuple[str, float]:
        """The layer span name with the most self time in one job."""
        layers = {n: s for n, s in self.self_times(job).items() if n not in ROOTS}
        return max(layers.items(), key=lambda item: item[1], default=("-", 0.0))

    def as_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j, "calls": c}
            for n, s, e, p, j, c in self.spans
        ]


def cache_metrics() -> dict[str, int]:
    """cache_info() of the package's caches, as counters."""
    out = {}
    for prefix, (module, attr) in CACHES.items():
        info = getattr(module, attr).cache_info()
        out[f"{prefix}.hits"] = info.hits
        out[f"{prefix}.misses"] = info.misses
        out[f"{prefix}.currsize"] = info.currsize
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The span, counter and cache part of PER_LAYER, for one traced pass."""
    seconds, calls = tracer.busy()
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        name, _, what = metric.rpartition("_")
        if what == "s" and not metric.startswith(("bench.", "cli.")):
            out[metric] = seconds.get(name, 0.0)
        elif what == "calls":
            out[metric] = calls.get(name, 0)
    out.update(
        (name, tracer.counts[name])
        for name in PER_LAYER
        if name not in out and not name.startswith(("bench.", "cli."))
    )
    return out
