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
from itertools import product
from json.encoder import encode_basestring_ascii

from . import branching, cosets, modules, verify
from .errors import (
    InvalidInputError,
    UnsupportedCodeError,
    check_cap,
    check_shape,
)
from .parafermion import central_charge
from .zkcodes import Case, Code, Codeword, span

ANALYSES = ("classify", "lattice", "branch", "modules", "verify")

DEFAULT_ORBIT_CAP = modules.DEFAULT_ORBIT_CAP
DEFAULT_VERIFY_MAX_K = 8

# The row keys of each table section, in order: its JSON rows and text columns.
_LATTICE_COLUMNS = ("coset", "min_norm", "count")
_BRANCH_COLUMNS = ("indices", "virasoro", "pf", "weight")
_ORBIT_COLUMNS = (
    "representative",
    "size",
    "stabilizer_order",
    "character",
    "min_weight",
    "regime",
    "num_irreducibles",
    "multiplicity",
)
_COUNT_COLUMNS = ("character", "count")
_CASE_B_COLUMNS = ("pair", "verdict", "regime", "num_irreducibles", "multiplicity")


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
        cosets.canonicalize(job.k, *job.coset)


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
    k = code.k
    check_cap("minimal-norm table of size", 2 ** (k - 1) * k, job.orbit_cap)
    lat = cosets.build_code_lattice(code)
    # the closed form depends on (j, weight) only: one call per pair j < w
    cell = {}
    for w in range(1, k + 1):
        bits = (1,) * w + (0,) * (k - w)
        for j in range(w):
            value, count = cosets.min_norm_data(k, j, bits)
            cell[j, w] = (rat(value), count)
    words = [("".join(map(str, bits)), sum(bits)) for bits in product((0, 1), repeat=k)]
    table = []
    for j in range(k):  # the order of cosets.all_labels(k)
        for text, w in words:
            if j < w:
                value, count = cell[j, w]
                table.append({"coset": f"{j}:{text}", "min_norm": value, "count": count})
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
    size = branching.component_count(code.k, label.bits)
    check_cap("branching table of size", size, job.orbit_cap)
    shared: dict = {}  # one canonical (m, r, s) tuple per distinct Kac label

    def kac(m: int, r: int, s: int) -> tuple[int, int, int]:
        lab = branching.vir_canonicalize(m, r, s)
        return shared.setdefault((lab.m, lab.r, lab.s), (lab.m, lab.r, lab.s))

    rows = branching._walk(code.k, label.j, label.bits, kac)
    count_data = cosets.min_norm_data(code.k, label.j, label.bits)
    den = branching.weight_den(code.k)
    weights = {num: rat(Fraction(num, den)) for num in {row[2] for row in rows}}
    tails = {indices[-1]: pf for indices, _, _, pf in rows}  # one PfLabel per i_k
    pairs = {i: (pf.i, pf.j) for i, pf in tails.items()}
    components = [
        {"indices": indices, "virasoro": vir, "pf": pairs[indices[-1]], "weight": weights[num]}
        for indices, vir, num, _ in rows
    ]
    return {"coset": str(label), "min_norm": rat(count_data[0]), "components": components}


def _modules_sections(code: Code, job: JobSpec) -> tuple[dict, dict, list | None]:
    if code.case is Case.UNSUPPORTED:
        raise UnsupportedCodeError(
            "the module census is defined for even or half-period codes only"
        )
    basis = modules.even_part_code(code) if code.case is Case.B else code
    orbit_list = modules.orbits(basis, job.orbit_cap)
    # one induced report per orbit, shared by the rows, counts and Case B records
    induced = [modules.induced_decomposition(orb, basis) for orb in orbit_list]
    rows = [
        {
            "representative": str(rep.orbit.representative),
            "size": rep.orbit.size,
            "stabilizer_order": len(rep.orbit.stabilizer),
            "character": str(rep.orbit.character),
            "min_weight": rat(rep.orbit.min_weight),
            "regime": rep.regime.value,
            "num_irreducibles": rep.num_irreducibles,
            "multiplicity": rep.multiplicity,
        }
        for rep in induced
    ]
    totals = modules.twisted_counts(induced)
    counts = [
        {"character": str(chi), "count": totals[chi]}
        for chi in modules.characters(basis, orbit_list)
    ]
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
            for rec in modules.caseB_modules(code, job.orbit_cap, induced)
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
        check_cap("verification level", job.k, job.verify_max_k)
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
    """`json.dumps(report, indent=2)`, byte for byte.

    The two large row lists, `lattice.min_norm_table` and
    `branch.components`, are written by a fixed per-row template; the rest
    goes through `json.dumps`.  A list whose rows do not have the shape
    `run` builds falls back to `json.dumps` too.
    """
    return _dump(report, 0, ())


def _dump(node, depth: int, path: tuple[str, ...]) -> str:
    """`node` as `json.dumps(..., indent=2)` writes it at nesting `depth`;
    `path` is the chain of keys from the report to `node`."""
    if path in _ROW_WRITERS and type(node) is list and node:
        text = _rows(node, depth, *_ROW_WRITERS[path])
        if text is not None:
            return text
    if path in _ROW_PARENTS and type(node) is dict and node:
        if all(type(key) is str for key in node):
            pad = "\n" + "  " * (depth + 1)
            items = [
                f"{_str(key)}: {_dump(value, depth + 1, path + (key,))}"
                for key, value in node.items()
            ]
            return "{" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "}"
    # encoded strings hold no raw newline, so re-indenting is a replace
    return json.dumps(node, indent=2).replace("\n", "\n" + "  " * depth)


_str = encode_basestring_ascii  # what json.dumps uses by default (ensure_ascii)


def _int(value) -> str:
    """An int as `json.dumps` writes it; TypeError on anything else, bools too."""
    if type(value) is not int:
        raise TypeError("expected an int")
    return repr(value)


def _array(texts, values, depth: int) -> str:
    """A list or tuple as `json.dumps(..., indent=2)` writes it at `depth`,
    its items written by the `_Texts` cache `texts`; TypeError on anything else."""
    if type(values) not in (list, tuple):
        raise TypeError("expected a list")
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + texts.join("," + pad, values) + pad[:-2] + "]" if values else "[]"


class _Texts(dict):
    """The text of each object, filled on first sight and keyed by identity,
    so equal values of other types (True and 1) keep their own text.  It
    holds every object it has converted, so no key can be reused."""

    def __init__(self, convert):
        super().__init__()
        self.convert, self.held = convert, []

    def one(self, x) -> str:
        text = self.get(id(x))
        if text is None:
            text = self[id(x)] = self.convert(x)
            self.held.append(x)
        return text

    def join(self, sep: str, values) -> str:
        try:
            return sep.join(map(self.__getitem__, map(id, values)))
        except KeyError:
            return sep.join(map(self.one, values))


def _rows(rows: list, depth: int, keys: tuple[str, ...], renderer) -> str | None:
    """A list of row dicts, each written by the template of
    `renderer(rows, depth + 1)`; None when a row does not have exactly
    `keys`, in order, or holds a value of another type than `run` puts
    there."""
    if not all(type(row) is dict and tuple(row) == keys for row in rows):
        return None
    pad = "\n" + "  " * (depth + 1)
    try:
        body = ("," + pad).join(map(renderer(rows, depth + 1), rows))
    except TypeError:
        return None
    return "[" + pad + body + "\n" + "  " * depth + "]"


def _lattice_row(rows: list, depth: int):
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    template = "{%s\"coset\": %%s,%s\"min_norm\": %%s,%s\"count\": %%s%s}" % (
        inner, inner, inner, outer
    )

    def render(row):
        count = row["count"]
        if type(count) is not int:
            raise TypeError("count must be an int")
        return template % (_str(row["coset"]), _str(row["min_norm"]), count)

    return render


def _branch_row(rows: list, depth: int):
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    template = (
        "{%s\"indices\": %%s,%s\"virasoro\": %%s,%s\"pf\": %%s,%s\"weight\": %%s%s}"
        % (inner, inner, inner, inner, outer)
    )
    # `_branch_section` shares its ints, Kac tuples and pf pairs between rows
    ints, kac = _Texts(_int), _Texts(lambda lab: _array(ints, lab, depth + 2))
    pairs = _Texts(lambda pf: _array(ints, pf, depth + 1))

    def render(row):
        return template % (
            _array(ints, row["indices"], depth + 1),
            _array(kac, row["virasoro"], depth + 1),
            pairs.one(row["pf"]),
            _str(row["weight"]),
        )

    return render


_ROW_WRITERS = {
    ("lattice", "min_norm_table"): (_LATTICE_COLUMNS, _lattice_row),
    ("branch", "components"): (_BRANCH_COLUMNS, _branch_row),
}
_ROW_PARENTS = {path[:n] for path in _ROW_WRITERS for n in range(len(path))}


def _cells(rows: list[dict], columns: tuple[str, ...]) -> list[tuple[str, ...]]:
    return [tuple(str(r[c]) for c in columns) for r in rows]


def _grid(cells: list[tuple[str, ...]], columns: list[str]) -> list[str]:
    """Left-justified columns under a header and a dash line; `cells` holds
    each row's strings in column order."""
    widths = [max(len(c), *map(len, col)) for c, col in zip(columns, zip(*cells))]
    widths = widths or [len(c) for c in columns]
    template = "  ".join(f"%-{w}s" for w in widths)
    head = template % tuple(columns)
    return [head, "-" * len(head), *map(template.__mod__, cells)]


def _tables(report: dict):
    """(title, cells, columns) of each table section present, in report
    order; each table's cells are built only when the loop reaches it."""
    if (lat := report["lattice"]) is not None:
        title = f"lattice: parity={lat['parity']} discriminant={lat['discriminant_order']}"
        yield title, _cells(lat["min_norm_table"], _LATTICE_COLUMNS), _LATTICE_COLUMNS
    if (br := report["branch"]) is not None:
        # each distinct int, Kac tuple and pf pair is shared between rows
        ints, kac = _Texts(str), _Texts(lambda lab: "(%s,%s,%s)" % tuple(lab))
        pairs = _Texts(lambda pf: f"({pf[0]},{pf[1]})")
        cells = [
            (
                ints.join(",", c["indices"]),
                kac.join(" ", c["virasoro"]),
                pairs.one(c["pf"]),
                str(c["weight"]),
            )
            for c in br["components"]
        ]
        title = f"branch of coset {br['coset']} (min norm {br['min_norm']}):"
        yield title, cells, _BRANCH_COLUMNS
    if (orb := report["orbits"]) is not None:
        title = f"orbits (acting code: {orb['acting_code']}):"
        yield title, _cells(orb["rows"], _ORBIT_COLUMNS), _ORBIT_COLUMNS
    if (counts := report["counts"]) is not None:
        title = "twisted module counts per character:"
        yield title, _cells(counts["rows"], _COUNT_COLUMNS), _COUNT_COLUMNS
    if (case_b := report["case_b"]) is not None:
        cells = [
            (f"{r['pair'][0]} | {r['pair'][1]}", *(str(r[c]) for c in _CASE_B_COLUMNS[1:]))
            for r in case_b
        ]
        yield "superalgebra sector pairing:", cells, _CASE_B_COLUMNS


def to_text(report: dict) -> str:
    inp, cls = report["input"], report["classification"]
    gens = "; ".join(",".join(str(x) for x in g) for g in inp["generators"])
    lines = [
        f"code: k={inp['k']} ell={inp['ell']} generators=[{gens}]",
        f"classification: {cls['case']} size={cls['size']}"
        + (
            f" even={cls['even_part_size']} odd={cls['odd_part_size']}"
            if "even_part_size" in cls
            else ""
        ),
        f"central charge: {report['central_charge']}",
    ]
    for title, cells, columns in _tables(report):
        lines += ["", title, *_grid(cells, columns)]
    if report["verify"] is not None:
        lines += ["", "verification:"]
        for entry in report["verify"]:
            status = "pass" if entry["pass"] else "FAIL"
            detail = f" -- {entry['detail']}" if entry["detail"] else ""
            lines.append(f"  {entry['name']}: {status}{detail}")
    lines.append("")
    return "\n".join(lines)
