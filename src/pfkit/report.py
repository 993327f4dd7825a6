"""Job orchestration and deterministic report serialization.

A job names a code (level, length, generators) and a set of analyses; `run`
returns a plain dict whose JSON and text renderings are byte-deterministic.
`build` returns the same report with its tables as row sources (`tables`
for the lattice and branch tables, `census` for the orbits, counts and
sector pairing), which `to_json` and `to_text` write to a handle in
chunks, each row one concatenation of pieces built once.  Each section
imports its module (`tables`, `census`, `cosets`, `branching`, `modules`,
`verify`) when it runs, so a job loads only the analyses it asks for.
Rationals are serialized as "p/q" strings, always with an explicit
denominator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from json.encoder import encode_basestring_ascii

from .errors import (
    DEFAULT_ORBIT_CAP,
    InvalidInputError,
    check_cap,
    check_int,
)
from .parafermion import central_charge
from .zkcodes import Case, Code, Codeword, span

ANALYSES = ("classify", "lattice", "branch", "modules", "verify")

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
    check_int(job.k, "level", 2)
    check_int(job.ell, "length", 1)
    for name in job.analyses:
        if name not in ANALYSES:
            raise InvalidInputError(
                f"unknown analysis {name!r}; choose from {ANALYSES}"
            )
    if job.fmt not in ("text", "json"):
        raise InvalidInputError(f"format must be text or json, got {job.fmt!r}")
    check_int(job.orbit_cap, "orbit cap", 1)
    check_int(job.verify_max_k, "verify max level", 2)
    if job.coset is not None:
        from . import cosets

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
    """A re-iterable row source: each iteration runs `rows(*args)` afresh and
    yields the row dicts of the `run` dict.  The writers read `args` instead:
    `text(*args)` yields the table's text lines, its header and dash line
    first, and `writer(depth, *args)` each row's JSON at `depth`, without a
    row dict."""

    def __init__(self, rows, *args, text, writer):
        self.rows, self.args, self.text, self.writer = rows, args, text, writer

    def __iter__(self):
        return self.rows(*self.args)


def build(job: JobSpec) -> dict:
    """Execute the requested analyses; returns the report dict with its
    tables, `lattice.min_norm_table`, `branch.components`, `orbits.rows`,
    `counts.rows` and `case_b`, as row sources: iterated, they build their
    row dicts afresh; `to_json` and `to_text` write them from their walk
    prefixes, lattice cells and orbit records.

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
        "central_charge": rat(job.ell * central_charge(job.k)),
        "lattice": None,
        "branch": None,
        "orbits": None,
        "counts": None,
        "case_b": None,
        "verify": None,
    }
    if "lattice" in want:
        from . import tables

        report["lattice"] = tables.lattice_section(code, job)
    if "branch" in want:
        from . import tables

        report["branch"] = tables.branch_section(code, job)
    if "modules" in want:
        from . import census

        report["orbits"], report["counts"], report["case_b"] = census.census_sections(code, job)
    if "verify" in want:
        check_cap("verification level", job.k, job.verify_max_k)
        from . import verify

        results = verify.run_suites(code, job.orbit_cap)
        report["verify"] = [
            {"name": r.name, "pass": r.passed, "detail": r.detail}
            for r in results
        ]
    return report


def run(job: JobSpec) -> dict:
    """`build`, with every row source turned into a list: a plain dict."""
    report = build(job)
    for name, section in report.items():
        if type(section) is _Rows:  # the Case B pairing
            report[name] = list(section)
        elif type(section) is dict:
            for key, value in section.items():
                if type(value) is _Rows:
                    section[key] = list(value)
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
    holding only the rows of the write in progress.  A row source's `writer`
    writes its rows from the source's structure, with no row dict; every
    other value, each list of a `run` dict included, goes through
    `json.dumps(indent=2)` whole.
    """
    return _emit(_dump(report, 0), out)


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


def _dump(node, depth: int):
    """The chunks of `node`, or of the `run` dict of a `build` report, as
    `_dumps(node, depth)` writes it: the report and its section dicts are
    walked key by key to the row sources (`_rows`), all else goes to `_dumps`."""
    if type(node) is _Rows:
        yield from _rows(node, depth)
    elif depth <= 1 and type(node) is dict and node and all(type(key) is str for key in node):
        pad = "\n" + "  " * (depth + 1)
        sep = "{" + pad
        for key, value in node.items():
            yield sep + _str(key) + ": "
            yield from _dump(value, depth + 1)
            sep = "," + pad
        yield "\n" + "  " * depth + "}"
    else:
        yield _dumps(node, depth)


_str = encode_basestring_ascii  # what json.dumps uses by default (ensure_ascii)


class _Texts(dict):
    """The text of each key, built by `convert` on first sight."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        text = self[key] = self.convert(key)
        return text


def _rows(rows: _Rows, depth: int):
    """The chunks of a row source at `depth`, as `_dumps` writes the list of
    its rows, `_CHUNK_ROWS` rows each: written by the source's writer from
    its arguments."""
    texts = rows.writer(depth + 1, *rows.args)
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


def _template(columns: tuple[str, ...], depth: int) -> str:
    """A row dict with keys `columns` as `json.dumps(..., indent=2)` writes
    it at `depth`, with one `%s` for each value's text."""
    inner = "\n" + "  " * (depth + 1)
    return "{" + ",".join(inner + _str(c) + ": %s" for c in columns) + "\n" + "  " * depth + "}"


def _cells(rows, columns: tuple[str, ...], render=None) -> list[list[str]]:
    """Each column's cell strings, from one pass over `rows`: `render(row)`
    gives a row's strings in column order, by default `str` of each value."""
    texts = map(render or (lambda row: [str(row[c]) for c in columns]), rows)
    cells: list[list[str]] = [[] for _ in columns]
    while chunk := list(islice(texts, _CHUNK_ROWS)):
        for column, part in zip(cells, zip(*chunk)):
            column.extend(part)
    return cells


def _header(columns: tuple[str, ...], widths) -> str:
    """A table's header line and dash line, its columns left-justified to
    `widths` and two spaces apart, as each row is."""
    head = "  ".join(c.ljust(w) for c, w in zip(columns, widths))
    return f"{head}\n{'-' * len(head)}\n"


def _grid(cells: list[list[str]], columns: tuple[str, ...]):
    """The lines of a table whose `cells` hold each column's strings: its
    header and dash line, then one line per row."""
    widths = [max(len(c), max(map(len, col), default=0)) for c, col in zip(columns, cells)]
    yield _header(columns, widths)
    yield from map(("  ".join(f"%-{w}s" for w in widths) + "\n").__mod__, zip(*cells))


def _lines(rows, columns: tuple[str, ...], render=None):
    """The lines of a table: a row source's `text` writes them from its
    arguments; other rows go through `_cells` and `_grid`."""
    if type(rows) is _Rows:
        return rows.text(*rows.args)
    return _grid(_cells(rows, columns, render), columns)


def _tables(report: dict):
    """(title, lines) of each table section present, in report order; each
    table's lines, or cells, are built only when the loop reaches it."""
    if (lat := report["lattice"]) is not None:
        title = f"lattice: parity={lat['parity']} discriminant={lat['discriminant_order']}"
        yield title, _lines(lat["min_norm_table"], _LATTICE_COLUMNS)
    if (br := report["branch"]) is not None:

        def render(c):
            return (
                ",".join(map(str, c["indices"])),
                " ".join("(%s,%s,%s)" % tuple(lab) for lab in c["virasoro"]),
                f"({c['pf'][0]},{c['pf'][1]})",
                str(c["weight"]),
            )

        title = f"branch of coset {br['coset']} (min norm {br['min_norm']}):"
        yield title, _lines(br["components"], _BRANCH_COLUMNS, render)
    if (orb := report["orbits"]) is not None:
        title = f"orbits (acting code: {orb['acting_code']}):"
        yield title, _lines(orb["rows"], _ORBIT_COLUMNS)
    if (counts := report["counts"]) is not None:
        title = "twisted module counts per character:"
        yield title, _lines(counts["rows"], _COUNT_COLUMNS)
    if (case_b := report["case_b"]) is not None:

        def pairing(r):
            return (f"{r['pair'][0]} | {r['pair'][1]}", *(str(r[c]) for c in _CASE_B_COLUMNS[1:]))

        yield "superalgebra sector pairing:", _lines(case_b, _CASE_B_COLUMNS, pairing)


def to_text(report: dict, out=None) -> str | None:
    """The text report; a `build` report gives the text of its `run` dict.

    With no `out` it returns the string; with a text handle `out` it writes
    the same characters to `out` in chunks of `_CHUNK_ROWS` lines and
    returns None.  A row source's `text` writes its table from the source's
    structure, with no row dict and no cell list: its column widths are
    known before the first row, and each row is one concatenation of padded
    pieces built once.  Every table of a `build` report is a row source;
    only a list, as each table of a `run` dict is, is rendered row by row,
    and holds its cell strings, column by column, until its widths are
    known.
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
    for title, table in _tables(report):
        yield f"\n{title}\n"
        while chunk := list(islice(table, _CHUNK_ROWS)):
            yield "".join(chunk)
    if report["verify"] is not None:
        lines = ["", "verification:"]
        for entry in report["verify"]:
            status = "pass" if entry["pass"] else "FAIL"
            detail = f" -- {entry['detail']}" if entry["detail"] else ""
            lines.append(f"  {entry['name']}: {status}{detail}")
        yield "\n".join(lines) + "\n"
