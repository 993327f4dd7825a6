"""The census tables of a report: the orbits, the twisted-module counts per
character and, for a half-period code, the superalgebra sector pairing.

`census_sections` walks the acting code once (`modules.orbits`) and reads
its records: the regime triple of each stabilizer, the irreducibles per
character, the weight numerators, and so every column width of the three
text tables.  Every check runs there, so nothing fails once a table is
written.  Each table is a `report._Rows` row source over those records.
Iterated, it builds the row dicts of the `run` dict afresh; its text and
JSON writers write the same rows with no row dict, each row one
concatenation of pieces built once per write: the representative's text
(`LabelTable.text`), a size and stabilizer-order piece and a regime tail
per stabilizer object, a piece per character object and one per weight
numerator.  A walk shares one stabilizer and one character object among
its records, so those pieces are keyed by identity.  `report` imports this
module only for a job that asks for the census.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import repeat, zip_longest
from operator import attrgetter

from . import modules
from .modules import label_text
from .report import _CASE_B_COLUMNS, _COUNT_COLUMNS, _ORBIT_COLUMNS, JobSpec, _header, _Rows, _str, _template, rat
from .zkcodes import Case, Code


def census_sections(code: Code, job: JobSpec) -> tuple[dict, dict, _Rows | None]:
    """The orbits and counts sections, and the sector pairing of a Case B
    code (None for Case A).  A Case B code acts through its even part."""
    basis = modules.even_part_code(code) if code.case is Case.B else code
    modules._check_case_a(basis)  # an unsupported code raises UnsupportedCodeError
    records = modules.orbits(basis, job.orbit_cap)
    table = modules.label_table(basis.k)
    chis = {id(chi): [str(chi), 0] for chi in modules.characters(basis, records)}  # id -> [text, count]
    stabs = {}  # id -> (size, order, regime value, num_irreducibles, multiplicity)
    for key, orb in {id(orb.stabilizer): orb for orb in records}.items():
        regime, num, mult = modules.stabilizer_regime(orb.stabilizer, basis.k)
        stabs[key] = (orb.size, len(orb.stabilizer), regime.value, num, mult)
    # a character's count: the irreducibles of each record with it
    stab_of, chi_of = attrgetter("stabilizer"), attrgetter("character")
    for (stab, chi), n in Counter(zip(map(id, map(stab_of, records)), map(id, map(chi_of, records)))).items():
        chis[chi][1] += stabs[stab][3] * n
    weights = {num: rat(Fraction(num, table.weight_den)) for num in set(map(attrgetter("weight"), records))}
    size, order, *tail = zip(*stabs.values())
    texts = [text for text, _ in chis.values()]
    widths = _widths(_ORBIT_COLUMNS, ((), size, order, texts, weights.values(), *tail))
    widths[0] = max(widths[0], _text_width(table, map(attrgetter("index"), records), basis.ell))
    orbit_rows = _Rows(_orbit_rows, records, table, stabs, chis, weights, widths, text=_orbit_text, writer=_orbit_json)
    counts = list(map(tuple, chis.values()))
    count_rows = _Rows(_count_rows, counts, _widths(_COUNT_COLUMNS, zip(*counts)), text=_count_text, writer=_count_json)
    scope = "even_part" if code.case is Case.B else "code"
    sections = {"acting_code": scope, "rows": orbit_rows}, {"acting_code": scope, "rows": count_rows}
    if code.case is not Case.B:
        return (*sections, None)
    pairs = list(modules._mates(code, basis, records))
    paired = [stabs[key][2:] for key in {id(records[n].stabilizer) for n, _, _ in pairs}]
    widths = _widths(_CASE_B_COLUMNS, ((), {verdict.value for _, _, verdict in pairs}, *zip(*paired)))
    # "rep | mate" is as long as the text of the tuple rep + mate, and two more
    joined = _text_width(table, (records[n].index + mate for n, mate, _ in pairs), 2 * basis.ell)
    widths[0] = max(widths[0], joined + len(" | ") - len("x"))
    case_b = _Rows(_pair_rows, records, table, stabs, pairs, widths, text=_pair_text, writer=_pair_json)
    return (*sections, case_b)


def _text_width(table: modules.LabelTable, indices, ell: int) -> int:
    """The longest `LabelTable.text` of the index tuples `indices`, each of
    length ell (0 for no tuple): the sum of its factor texts' lengths, summed
    in C, and ell - 1 for the "x"s between them; no text is built."""
    length = list(map(len, table.names)).__getitem__
    return max(map(sum, map(map, repeat(length), indices)), default=1 - ell) + ell - 1


def _widths(columns: tuple[str, ...], values) -> list[int]:
    """Each text column's width: the longest of its name and the `str` of
    its values, one iterable per column (a missing one holds none); each
    distinct value once is enough."""
    return [max([len(column), *map(len, map(str, col))]) for column, col in zip_longest(columns, values, fillvalue=())]


def _formats(widths: list[int]) -> list[str]:
    """Each text column's cell format: padded to its width, then two spaces,
    or the newline after the last column."""
    formats = ["%%-%ds  " % w for w in widths]
    formats[-1] = "%%-%ds\n" % widths[-1]
    return formats


def _orbit_rows(records, table, stabs, chis, weights, widths):
    for orb in records:
        regime, num, mult = stabs[id(orb.stabilizer)][2:]
        character, weight = chis[id(orb.character)][0], weights[orb.weight]
        row = (table.text(orb.index), orb.size, len(orb.stabilizer), character, weight, regime, num, mult)
        yield dict(zip(_ORBIT_COLUMNS, row))


def _orbit_lines(records, names, start: str, wrap, pieces: dict, chars: dict, marks: dict):
    """Each orbit row's text: `start`, `wrap` of the representative's text
    from `names`, the factor texts, then the head of its stabilizer's
    `pieces`, its character's and its weight numerator's pieces, and the
    stabilizer's tail."""
    name = names.__getitem__
    for orb in records:
        head, tail = pieces[id(orb.stabilizer)]
        rep = wrap(label_text(map(name, orb.index)))
        yield f"{start}{rep}{head}{chars[id(orb.character)]}{marks[orb.weight]}{tail}"


def _orbit_text(records, table, stabs, chis, weights, widths):
    """The lines of the orbits text table, padded to `widths`."""
    yield _header(_ORBIT_COLUMNS, widths)
    rep, size, order, char, weight, regime, num, mult = _formats(widths)
    pieces = {key: (size % s + order % o, regime % r + num % n + mult % m) for key, (s, o, r, n, m) in stabs.items()}
    chars = {key: char % text for key, (text, _) in chis.items()}
    marks = {key: weight % text for key, text in weights.items()}
    yield from _orbit_lines(records, table.names, "", rep.__mod__, pieces, chars, marks)


def _orbit_json(depth: int, records, table, stabs, chis, weights, widths):
    before, size, order, char, weight, regime, num, mult, after = _template(_ORBIT_COLUMNS, depth).split("%s")
    pieces = {
        key: (f"{size}{s}{order}{o}{char}", f"{_str(r)}{num}{n}{mult}{m}{after}")
        for key, (s, o, r, n, m) in stabs.items()
    }
    chars = {key: _str(text) + weight for key, (text, _) in chis.items()}
    marks = {key: _str(text) + regime for key, text in weights.items()}
    return _orbit_lines(records, table.names, before, _str, pieces, chars, marks)


def _count_rows(counts, widths):
    for row in counts:
        yield dict(zip(_COUNT_COLUMNS, row))


def _count_text(counts, widths):
    """The lines of the counts text table: one row per character."""
    yield _header(_COUNT_COLUMNS, widths)
    yield from map("".join(_formats(widths)).__mod__, counts)


def _count_json(depth: int, counts, widths):
    row = _template(_COUNT_COLUMNS, depth)
    return (row % (_str(text), count) for text, count in counts)


def _pair_rows(records, table, stabs, pairs, widths):
    for n, mate, verdict in pairs:
        orb = records[n]
        row = ([table.text(orb.index), table.text(mate)], verdict.value, *stabs[id(orb.stabilizer)][2:])
        yield dict(zip(_CASE_B_COLUMNS, row))


def _pair_lines(records, pairs, names, pair, verdicts: dict, tails: dict):
    """Each pairing row's text: `pair` of the representative's and the
    mate's texts from `names`, the factor texts, then the piece of its
    verdict and the tail of its stabilizer."""
    name = names.__getitem__
    for n, mate, verdict in pairs:
        orb = records[n]
        labels = pair(label_text(map(name, orb.index)), label_text(map(name, mate)))
        yield f"{labels}{verdicts[verdict]}{tails[id(orb.stabilizer)]}"


def _pair_text(records, table, stabs, pairs, widths):
    """The lines of the sector pairing text table, padded to `widths`."""
    yield _header(_CASE_B_COLUMNS, widths)
    pair, verdict, regime, num, mult = _formats(widths)
    verdicts = {v: verdict % v.value for v in modules.Verdict}
    tails = {key: regime % r + num % n + mult % m for key, (_, _, r, n, m) in stabs.items()}
    yield from _pair_lines(records, pairs, table.names, lambda rep, mate: pair % f"{rep} | {mate}", verdicts, tails)


def _pair_json(depth: int, records, table, stabs, pairs, widths):
    before, verdict, regime, num, mult, after = _template(_CASE_B_COLUMNS, depth).split("%s")
    pad = "\n" + "  " * (depth + 2)  # the two labels of a row's pair
    start, sep, close = before + "[" + pad, "," + pad, pad[:-2] + "]" + verdict
    verdicts = {v: _str(v.value) + regime for v in modules.Verdict}
    tails = {key: f"{_str(r)}{num}{n}{mult}{m}{after}" for key, (_, _, r, n, m) in stabs.items()}

    def pair(rep: str, mate: str) -> str:
        return f"{start}{_str(rep)}{sep}{_str(mate)}{close}"

    return _pair_lines(records, pairs, table.names, pair, verdicts, tails)
