"""Job orchestration and deterministic report serialization.

A job names a code (level, length, generators) and a set of analyses; `run`
returns a plain dict whose JSON and text renderings are byte-deterministic.
`build` returns the same report with its two large tables as row sources,
which `to_json` and `to_text` write to a handle in chunks.
Rationals are serialized as "p/q" strings, always with an explicit
denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
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


class _Rows:
    """A re-iterable row source: each iteration runs `rows(*args)` afresh."""

    def __init__(self, rows, *args):
        self.rows, self.args = rows, args

    def __iter__(self):
        return self.rows(*self.args)


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
    return {
        "parity": lat.parity,
        "discriminant_order": lat.discriminant_order,
        "min_norm_table": _Rows(_lattice_rows, k, cell),
    }


def _lattice_rows(k: int, cell: dict):
    words = [("".join(map(str, bits)), sum(bits)) for bits in product((0, 1), repeat=k)]
    for j in range(k):  # the order of cosets.all_labels(k)
        for text, w in words:
            if j < w:
                value, count = cell[j, w]
                yield {"coset": f"{j}:{text}", "min_norm": value, "count": count}


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

    walk = branching._walk(code.k, label.j, label.bits, kac)
    count_data = cosets.min_norm_data(code.k, label.j, label.bits)
    return {
        "coset": str(label),
        "min_norm": rat(count_data[0]),
        "components": _Rows(_branch_rows, walk, branching.weight_den(code.k)),
    }


def _branch_rows(walk, den: int):
    # one weight string per numerator and one pf pair per i_k, shared by the rows
    weights: dict = {}
    pairs: dict = {}
    for indices, vir, num, pf in walk():
        weight = weights.get(num) or weights.setdefault(num, rat(Fraction(num, den)))
        pair = pairs.get(indices[-1]) or pairs.setdefault(indices[-1], (pf.i, pf.j))
        yield {"indices": indices, "virasoro": vir, "pf": pair, "weight": weight}


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


def build(job: JobSpec) -> dict:
    """Execute the requested analyses; returns the report dict with the two
    large tables, `lattice.min_norm_table` and `branch.components`, as row
    sources that build their row dicts afresh on each iteration.

    Every validation, cap and cross-check runs before `build` returns, so
    writing the report with `to_json` or `to_text` cannot raise a
    `PfkitError`.  Analyses not requested appear as null sections so the
    schema is stable.
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


def run(job: JobSpec) -> dict:
    """`build`, with every row source turned into a list: a plain dict."""
    report = build(job)
    for section, key in _ROW_WRITERS:
        if report[section] is not None:
            report[section][key] = list(report[section][key])
    return report


def verify_passed(report: dict) -> bool:
    """True unless the report carries a failed verification suite."""
    section = report.get("verify")
    if not section:
        return True
    return all(entry["pass"] for entry in section)


def to_json(report: dict, out=None) -> str | None:
    """`json.dumps(report, indent=2)`, byte for byte; a `build` report gives
    the bytes of its `run` dict.

    With no `out` it returns the string.  With a text handle `out` it writes
    the same characters to `out` in chunks (`_emit`) and returns None,
    holding only the rows of the write in progress.  The two large row
    sections, `lattice.min_norm_table` and `branch.components`, are written
    row by row, each by a fixed per-row template; a row that does not have
    the shape `run` builds goes through `json.dumps` on its own, and
    everything else through `json.dumps` whole.
    """
    return _emit(_dump(report, 0, ()), out)


def _emit(chunks, out):
    """The joined `chunks`, or None once they are written to `out` in writes
    of at least `_WRITE_SIZE` characters, but the last."""
    if out is None:
        return "".join(chunks)
    pending, size = [], 0
    for chunk in chunks:
        pending.append(chunk)
        size += len(chunk)
        if size >= _WRITE_SIZE:
            out.write("".join(pending))
            pending, size = [], 0
    out.write("".join(pending))
    return None


_CHUNK_ROWS = 1024  # rows per chunk that the writers join
# An unbuffered stdout (python -u) passes each write to the OS as it is, so
# the small chunks are gathered: a report under this size is one write.
_WRITE_SIZE = 1 << 18


def _dumps(node, depth: int) -> str:
    """`node` as `json.dumps(..., indent=2)` writes it at nesting `depth`."""
    # encoded strings hold no raw newline, so re-indenting is a replace
    return json.dumps(node, indent=2).replace("\n", "\n" + "  " * depth)


def _dump(node, depth: int, path: tuple[str, ...]):
    """The chunks of `node` as `_dumps(node, depth)` writes it; `path` is the
    chain of keys from the report to `node`."""
    if path in _ROW_WRITERS and type(node) in (list, _Rows):
        yield from _rows(node, depth, *_ROW_WRITERS[path])
    elif (
        path in _ROW_PARENTS
        and type(node) is dict
        and node
        and all(type(key) is str for key in node)
    ):
        pad = "\n" + "  " * (depth + 1)
        sep = "{" + pad
        for key, value in node.items():
            yield sep + _str(key) + ": "
            yield from _dump(value, depth + 1, path + (key,))
            sep = "," + pad
        yield "\n" + "  " * depth + "}"
    else:
        yield _dumps(node, depth)


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


def _rows(rows, depth: int, keys: tuple[str, ...], renderer):
    """The chunks of a list of rows at `depth`, `_CHUNK_ROWS` rows each.  A
    dict with exactly `keys`, in order, is written by the template of
    `renderer(depth + 1)`; any other row, or one holding a value of another
    type than `run` puts there, by `_dumps`, which writes the same bytes as
    `json.dumps` of the whole list."""
    render = renderer(depth + 1)

    def text(row) -> str:
        if type(row) is dict and tuple(row) == keys:
            try:
                return render(row)
            except TypeError:
                pass
        return _dumps(row, depth + 1)

    texts = map(text, rows)
    chunk = list(islice(texts, _CHUNK_ROWS))
    if not chunk:
        yield "[]"
        return
    pad = "\n" + "  " * (depth + 1)
    sep = "," + pad
    yield "[" + pad + sep.join(chunk)
    while chunk := list(islice(texts, _CHUNK_ROWS)):
        yield sep + sep.join(chunk)
    yield "\n" + "  " * depth + "]"


def _lattice_row(depth: int):
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


def _branch_row(depth: int):
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


def _cells(rows, columns: tuple[str, ...], render=None) -> list[list[str]]:
    """Each column's cell strings, from one pass over `rows`: `render(row)`
    gives a row's strings in column order, by default `str` of each value."""
    render = render or (lambda row: [str(row[c]) for c in columns])
    cells: list[list[str]] = [[] for _ in columns]
    texts = map(render, rows)
    while chunk := list(islice(texts, _CHUNK_ROWS)):
        for column, part in zip(cells, zip(*chunk)):
            column.extend(part)
    return cells


def _grid(cells: list[list[str]], columns: tuple[str, ...]):
    """Left-justified columns under a header and a dash line, in chunks of
    lines; `cells` holds each column's strings."""
    widths = [max(len(c), max(map(len, col), default=0)) for c, col in zip(columns, cells)]
    template = "  ".join(f"%-{w}s" for w in widths)
    head = template % tuple(columns)
    yield f"{head}\n{'-' * len(head)}\n"
    lines = map(template.__mod__, zip(*cells))
    while chunk := list(islice(lines, _CHUNK_ROWS)):
        yield "\n".join(chunk) + "\n"


def _tables(report: dict):
    """(title, cells, columns) of each table section present, in report
    order, with each column's cells; each table's cells are built only when
    the loop reaches it."""
    if (lat := report["lattice"]) is not None:
        title = f"lattice: parity={lat['parity']} discriminant={lat['discriminant_order']}"
        yield title, _cells(lat["min_norm_table"], _LATTICE_COLUMNS), _LATTICE_COLUMNS
    if (br := report["branch"]) is not None:
        # each distinct int, Kac tuple and pf pair is shared between rows
        ints, kac = _Texts(str), _Texts(lambda lab: "(%s,%s,%s)" % tuple(lab))
        pairs = _Texts(lambda pf: f"({pf[0]},{pf[1]})")

        def render(c):
            return (
                ints.join(",", c["indices"]),
                kac.join(" ", c["virasoro"]),
                pairs.one(c["pf"]),
                str(c["weight"]),
            )

        title = f"branch of coset {br['coset']} (min norm {br['min_norm']}):"
        yield title, _cells(br["components"], _BRANCH_COLUMNS, render), _BRANCH_COLUMNS
    if (orb := report["orbits"]) is not None:
        title = f"orbits (acting code: {orb['acting_code']}):"
        yield title, _cells(orb["rows"], _ORBIT_COLUMNS), _ORBIT_COLUMNS
    if (counts := report["counts"]) is not None:
        title = "twisted module counts per character:"
        yield title, _cells(counts["rows"], _COUNT_COLUMNS), _COUNT_COLUMNS
    if (case_b := report["case_b"]) is not None:

        def pairing(r):
            return (f"{r['pair'][0]} | {r['pair'][1]}", *(str(r[c]) for c in _CASE_B_COLUMNS[1:]))

        yield "superalgebra sector pairing:", _cells(case_b, _CASE_B_COLUMNS, pairing), _CASE_B_COLUMNS


def to_text(report: dict, out=None) -> str | None:
    """The text report; a `build` report gives the text of its `run` dict.

    With no `out` it returns the string; with a text handle `out` it writes
    the same characters to `out` in chunks and returns None.  Each table's
    column widths need all its cells first, so a table holds its cell
    strings, column by column, until its lines are written.
    """
    return _emit(_text(report), out)


def _text(report: dict):
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
    yield "\n".join(lines) + "\n"
    for title, cells, columns in _tables(report):
        yield f"\n{title}\n"
        yield from _grid(cells, columns)
    if report["verify"] is not None:
        lines = ["", "verification:"]
        for entry in report["verify"]:
            status = "pass" if entry["pass"] else "FAIL"
            detail = f" -- {entry['detail']}" if entry["detail"] else ""
            lines.append(f"  {entry['name']}: {status}{detail}")
        yield "\n".join(lines) + "\n"
