"""Job orchestration and deterministic report serialization.

A job names a code (level, length, generators) and a set of analyses; `run`
returns a plain dict whose JSON and text renderings are byte-deterministic.
Rationals are serialized as "p/q" strings, always with an explicit
denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import branching, cosets, modules, verify
from .errors import (
    CapExceededError,
    InvalidInputError,
    UnsupportedCodeError,
    check_bits,
    check_shape,
)
from .parafermion import central_charge
from .zkcodes import Case, Code, Codeword, span

ANALYSES = ("classify", "lattice", "branch", "modules", "verify")

DEFAULT_ORBIT_CAP = modules.DEFAULT_ORBIT_CAP
DEFAULT_VERIFY_MAX_K = 8


@dataclass(frozen=True)
class JobSpec:
    """Everything one invocation needs; validated by `run`."""

    k: int
    ell: int
    generators: tuple[Codeword, ...] = ()
    analyses: tuple[str, ...] = ("classify",)
    fmt: str = "text"
    coset: tuple[int, tuple[int, ...]] | None = None
    orbit_cap: int = DEFAULT_ORBIT_CAP
    verify_max_k: int = DEFAULT_VERIFY_MAX_K


def rat(x) -> str:
    """Serialize a rational as \"p/q\" with the denominator kept."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _validate(job: JobSpec) -> None:
    check_shape(job.k, job.ell)
    for name in job.analyses:
        if name not in ANALYSES:
            raise InvalidInputError(
                f"unknown analysis {name!r}; choose from {ANALYSES}"
            )
    if job.fmt not in ("text", "json"):
        raise InvalidInputError(f"format must be text or json, got {job.fmt!r}")
    if job.orbit_cap < 1 or job.verify_max_k < 2:
        raise InvalidInputError("caps must be positive (verify max level >= 2)")
    if job.coset is not None:
        j, bits = job.coset
        check_bits(job.k, bits)
        if not isinstance(j, int):
            raise InvalidInputError(f"coset shift must be an integer, got {j!r}")


def _classification_section(code: Code) -> dict:
    section = {
        "case": code.case.value,
        "size": code.size,
        "words": [list(w) for w in code.words] if code.size <= 64 else None,
    }
    if code.case is Case.B:
        section["even_part_size"] = len(code.even_part)
        section["odd_part_size"] = len(code.odd_part)
    return section


def _lattice_section(code: Code, job: JobSpec) -> dict:
    rows = 2 ** (code.k - 1) * code.k
    if rows > job.orbit_cap:
        raise CapExceededError(
            f"minimal-norm table with {rows} rows exceeds the orbit cap of "
            f"{job.orbit_cap} (--orbit-cap)"
        )
    lat = cosets.build_code_lattice(code)
    table = []
    for lab in cosets.all_labels(code.k):
        value, count = cosets.min_norm_data(lab.k, lab.j, lab.bits)
        table.append(
            {
                "coset": str(lab),
                "min_norm": rat(value),
                "count": count,
            }
        )
    return {
        "parity": lat.parity,
        "discriminant_order": lat.discriminant_order,
        "min_norm_table": table,
    }


def _branch_section(code: Code, job: JobSpec) -> dict:
    if job.coset is not None:
        j, bits = job.coset
    else:
        lab = cosets.identity_label(code.k)
        j, bits = lab.j, lab.bits
    label = cosets.canonicalize(code.k, j, bits)
    components = branching.branch(code.k, label.j, label.bits)
    count_data = cosets.min_norm_data(code.k, label.j, label.bits)
    return {
        "coset": str(label),
        "min_norm": rat(count_data[0]),
        "components": [
            {
                "indices": list(comp.indices),
                "virasoro": [[lab.m, lab.r, lab.s] for lab in comp.virasoro],
                "pf": [comp.pf.i, comp.pf.j],
                "weight": rat(comp.weight),
            }
            for comp in components
        ],
    }


def _modules_sections(code: Code, job: JobSpec) -> tuple[dict, dict, list | None]:
    if code.case is Case.UNSUPPORTED:
        raise UnsupportedCodeError(
            "the module census is defined for even or half-period codes only"
        )
    basis = modules.even_part_code(code) if code.case is Case.B else code
    orbit_list = modules.orbits(basis, job.orbit_cap)
    case_b: list | None = None
    if code.case is Case.B:
        case_b = [
            {
                "pair": [str(rec.pair[0]), str(rec.pair[1])],
                "verdict": rec.verdict.value,
                "regime": rec.induced.regime.value,
                "num_irreducibles": rec.induced.num_irreducibles,
                "multiplicity": rec.induced.multiplicity,
            }
            for rec in modules.caseB_modules(code, orbit_list)
        ]
    rows = []

    def induced():
        # each orbit's induced report, built once for its row and the counts
        for orb in orbit_list:
            rep = modules.induced_decomposition(orb, basis)
            rows.append(
                {
                    "representative": str(orb.representative),
                    "size": orb.size,
                    "stabilizer_order": len(orb.stabilizer),
                    "character": str(orb.character),
                    "min_weight": rat(orb.min_weight),
                    "regime": rep.regime.value,
                    "num_irreducibles": rep.num_irreducibles,
                    "multiplicity": rep.multiplicity,
                }
            )
            yield rep

    totals = modules.twisted_counts(induced())
    counts = [
        {"character": str(chi), "count": totals[chi]}
        for chi in modules.characters(basis, orbit_list)
    ]
    scope = "even_part" if code.case is Case.B else "code"
    return (
        {"acting_code": scope, "rows": rows},
        {"acting_code": scope, "rows": counts},
        case_b,
    )


def run(job: JobSpec) -> dict:
    """Execute the requested analyses; returns the report dict.

    Analyses not requested appear as null sections so the schema is stable.
    """
    _validate(job)
    code = span(job.generators, job.k, job.ell)
    want = set(job.analyses)
    report: dict = {
        "input": {
            "k": job.k,
            "ell": job.ell,
            "generators": [list(g) for g in job.generators],
            "analyses": list(job.analyses),
            "format": job.fmt,
            "coset": (
                f"{job.coset[0]}:{''.join(str(b) for b in job.coset[1])}"
                if job.coset is not None
                else None
            ),
            "orbit_cap": job.orbit_cap,
            "verify_max_k": job.verify_max_k,
        },
        "classification": _classification_section(code),
        "central_charge": rat(
            job.ell * central_charge(job.k)
        ),
        "lattice": None,
        "branch": None,
        "orbits": None,
        "counts": None,
        "case_b": None,
        "verify": None,
    }
    if "lattice" in want:
        report["lattice"] = _lattice_section(code, job)
    if "branch" in want:
        report["branch"] = _branch_section(code, job)
    if "modules" in want:
        orbits_sec, counts_sec, case_b = _modules_sections(code, job)
        report["orbits"] = orbits_sec
        report["counts"] = counts_sec
        report["case_b"] = case_b
    if "verify" in want:
        if job.k > job.verify_max_k:
            raise CapExceededError(
                f"verification is capped at level {job.verify_max_k}, job has {job.k}"
            )
        results = verify.run_suites(code, job.orbit_cap)
        report["verify"] = [
            {"name": r.name, "pass": r.passed, "detail": r.detail}
            for r in results
        ]
    return report


def verify_passed(report: dict) -> bool:
    """True unless the report carries a failed verification suite."""
    section = report.get("verify")
    if not section:
        return True
    return all(entry["pass"] for entry in section)


def to_json(report: dict) -> str:
    return json.dumps(report, indent=2)


def _table(rows: list[dict], columns: list[str]) -> list[str]:
    widths = {
        c: max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c)
        for c in columns
    }
    head = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in columns))
    return lines


def to_text(report: dict) -> str:
    lines: list[str] = []
    inp = report["input"]
    gens = "; ".join(",".join(str(x) for x in g) for g in inp["generators"])
    lines.append(
        f"code: k={inp['k']} ell={inp['ell']} generators=[{gens}]"
    )
    cls = report["classification"]
    lines.append(
        f"classification: {cls['case']} size={cls['size']}"
        + (
            f" even={cls['even_part_size']} odd={cls['odd_part_size']}"
            if "even_part_size" in cls
            else ""
        )
    )
    lines.append(f"central charge: {report['central_charge']}")
    if report["lattice"] is not None:
        lat = report["lattice"]
        lines.append("")
        lines.append(
            f"lattice: parity={lat['parity']} discriminant={lat['discriminant_order']}"
        )
        lines.extend(_table(lat["min_norm_table"], ["coset", "min_norm", "count"]))
    if report["branch"] is not None:
        br = report["branch"]
        lines.append("")
        lines.append(f"branch of coset {br['coset']} (min norm {br['min_norm']}):")
        rows = [
            {
                "indices": ",".join(str(i) for i in c["indices"]),
                "virasoro": " ".join(f"({m},{r},{s})" for m, r, s in c["virasoro"]),
                "pf": f"({c['pf'][0]},{c['pf'][1]})",
                "weight": c["weight"],
            }
            for c in br["components"]
        ]
        lines.extend(_table(rows, ["indices", "virasoro", "pf", "weight"]))
    if report["orbits"] is not None:
        orb = report["orbits"]
        lines.append("")
        lines.append(f"orbits (acting code: {orb['acting_code']}):")
        lines.extend(
            _table(
                orb["rows"],
                [
                    "representative",
                    "size",
                    "stabilizer_order",
                    "character",
                    "min_weight",
                    "regime",
                    "num_irreducibles",
                    "multiplicity",
                ],
            )
        )
    if report["counts"] is not None:
        lines.append("")
        lines.append("twisted module counts per character:")
        lines.extend(_table(report["counts"]["rows"], ["character", "count"]))
    if report["case_b"] is not None:
        lines.append("")
        lines.append("superalgebra sector pairing:")
        rows = [
            {
                "pair": f"{r['pair'][0]} | {r['pair'][1]}",
                "verdict": r["verdict"],
                "regime": r["regime"],
                "num_irreducibles": r["num_irreducibles"],
                "multiplicity": r["multiplicity"],
            }
            for r in report["case_b"]
        ]
        lines.extend(
            _table(rows, ["pair", "verdict", "regime", "num_irreducibles", "multiplicity"])
        )
    if report["verify"] is not None:
        lines.append("")
        lines.append("verification:")
        for entry in report["verify"]:
            status = "pass" if entry["pass"] else "FAIL"
            detail = f" -- {entry['detail']}" if entry["detail"] else ""
            lines.append(f"  {entry['name']}: {status}{detail}")
    lines.append("")
    return "\n".join(lines)
