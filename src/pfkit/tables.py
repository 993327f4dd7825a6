"""The two large tables of a report: the minimal-norm table of the lattice
section and the components of the branch section.

`lattice_section` and `branch_section` run every check and cap of their
section and return it with its table as a `report._Rows` row source.
Iterated, a source builds the row dicts of the `run` dict afresh; its text
and JSON writers write the same rows with no row dict, each row one
concatenation of pieces that are built once.  A branch row's prefix texts
come from the walk itself, which builds each node's index text and Kac
text from its parent's with one concatenation; a lattice row's tail is
read by weight from one list per j.  In text the pieces are already
padded: the column widths are known before the first row, from the
lattice's (j, weight) cells and from the walk's step tables.  `report`
imports this module only for a job that asks for one of the two tables.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import check_cap
from .report import (
    _BRANCH_COLUMNS,
    _LATTICE_COLUMNS,
    JobSpec,
    _Rows,
    _Texts,
    _header,
    _str,
    _template,
    rat,
)
from .zkcodes import Code


def lattice_section(code: Code, job: JobSpec) -> dict:
    """The lattice section: the code lattice's parity and discriminant, and
    the minimal norm and count of every coset, in `cosets.all_labels` order."""
    from . import cosets

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
        "min_norm_table": _Rows(_lattice_rows, k, cell, text=_lattice_text, writer=_lattice_json),
    }


def _bit_words(k: int) -> list[tuple[str, int]]:
    """Each bits text and its weight, in `product((0, 1), repeat=k)` order."""
    words = [("", 0)]
    for _ in range(k):
        words = [(text + bit, w + n) for text, w in words for bit, n in (("0", 0), ("1", 1))]
    return words


def _lattice_rows(k: int, cell: dict):
    words = _bit_words(k)
    for j in range(k):
        for text, w in words:
            if j < w:
                yield dict(zip(_LATTICE_COLUMNS, (f"{j}:{text}", *cell[j, w])))


def _lattice_lines(k: int, heads: list[str], tails: list[list]):
    """Each row's text, in the order of `cosets.all_labels(k)`: the coset
    (j, bits) is `heads[j]` + its bits text + `tails[j][weight]`, and each
    bits text is built once per pass."""
    words = _bit_words(k)
    for j, (head, ends) in enumerate(zip(heads, tails)):
        yield from [f"{head}{text}{ends[w]}" for text, w in words if j < w]


def _by_weight(k: int, cell: dict, piece) -> list[list]:
    """`piece(j, value text, count)` of each (j, weight) cell, as one list
    per j indexed by weight; the weights w <= j hold None."""
    return [[piece(j, *cell[j, w]) if j < w else None for w in range(k + 1)] for j in range(k)]


def _lattice_text(k: int, cell: dict):
    """The lines of the lattice text table.  Its widths are known before the
    first row: the widest coset is (k - 1, 1...1), and each other column is
    its widest (j, weight) cell, as every cell is some row's."""
    widths = [max(len(_LATTICE_COLUMNS[0]), len(f"{k - 1}:") + k)]
    for column, col in zip(_LATTICE_COLUMNS[1:], zip(*cell.values())):
        widths.append(max(len(column), *(len(str(x)) for x in col)))
    yield _header(_LATTICE_COLUMNS, widths)
    heads = [f"{j}:" for j in range(k)]
    rest = f"  %-{widths[1]}s  %-{widths[2]}s\n"

    def tail(j: int, value: str, n: int) -> str:
        # the coset's padding depends on j only
        return " " * (widths[0] - len(heads[j]) - k) + rest % (value, n)

    yield from _lattice_lines(k, heads, _by_weight(k, cell, tail))


def _lattice_json(depth: int, k: int, cell: dict):
    before, after = _template(_LATTICE_COLUMNS, depth).split("%s", 1)
    heads = [f'{before}"{j}:' for j in range(k)]
    # the rationals hold no JSON escapes
    tails = _by_weight(k, cell, lambda j, value, n: '"' + after % (f'"{value}"', n))
    return _lattice_lines(k, heads, tails)


def branch_section(code: Code, job: JobSpec) -> dict:
    """The branch section: the components of the job's coset, by default the
    identity coset, in `branching._walk` order.  The rank cap is checked
    first: past it the table's size can have more digits than `str` of an
    int allows."""
    from . import branching

    check_cap("branching rank", code.k, branching.BRANCH_MAX_LEVEL)
    from . import cosets

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
    rows = _Rows(_branch_rows, walk, branching.weight_den(code.k), text=_branch_text, writer=_branch_json)
    count_data = cosets.min_norm_data(code.k, label.j, label.bits)
    return {"coset": str(label), "min_norm": rat(count_data[0]), "components": rows}


def _branch_rows(walk, den: int):
    # one weight string per numerator and one pf pair per i_k, shared by the rows
    weights, pairs = _Texts(lambda num: rat(Fraction(num, den))), {}
    for prefix, vir, hnum, last in walk():
        for b, lab, h, pf in last:
            pair = pairs.get(b) or pairs.setdefault(b, (pf.i, pf.j))
            yield {"indices": prefix + (b,), "virasoro": vir + (lab,), "pf": pair, "weight": weights[hnum + h]}


def _branch_lines(walk, kac, end, weights, head=("", ","), mid=("", " ")):
    """Each row's text, in walk order, as one concatenation: the head (the
    prefix's indices, after `head`'s opening and each followed by its
    separator), the last-step entry's end piece, the mid (the prefix's Kac
    texts `kac[entry]`, likewise by `mid`), the entry's Kac piece, and
    `weights[numerator]`.  The walk carries the head and the mid, each
    node's built from its parent's with one concatenation.  `end(entries,
    head length, mid length)` gives each last-step entry's (end piece, Kac
    piece, numerator); it runs once per (i_{k-1}, head length, mid length),
    as each i_{k-1} has its own entry list."""
    (start, comma), (open_mid, space) = head, mid
    ends: dict = {}
    groups = walk(lambda i: f"{i}{comma}", lambda lab: kac[lab] + space, (start, open_mid))
    for first, middle, hnum, last in groups:
        key = id(last), len(first), len(middle)
        if (pieces := ends.get(key)) is None:
            pieces = ends[key] = end(last, len(first), len(middle))
        yield from [f"{first}{b}{middle}{lab}{weights[hnum + h]}" for b, lab, h in pieces]


def _branch_widths(walk, kac, weight) -> list[int]:
    """The text columns' widths, header included, from the walk's step tables
    with no pass over the rows; `kac[entry]` and `weight[numerator]` are the
    cell texts.  The rows are the full product of the tables, so the widest
    indices are the widest value of each slot joined by commas; the widest
    Kac column is a max-plus pass over the steps; the widest pf is the widest
    tail pair; and the widest weight is the widest text over the numerators
    that some row reaches, found by a sum-set pass over the steps."""
    digits = [max(map(len, map(str, walk.first)))]
    longest = dict.fromkeys(walk.first, 0)  # i_s -> widest Kac text ending there
    sums = {i: {0} for i in walk.first}  # i_s -> numerators ending there
    for step in (*walk.steps, walk.last):
        wide: dict = {}
        reach: dict = {}
        for a, entries in step.items():
            for b, lab, h, *_ in entries:
                wide[b] = max(wide.get(b, 0), longest[a] + len(kac[lab]))
                reach.setdefault(b, set()).update([s + h for s in sums[a]])
        digits.append(max(map(len, map(str, wide))))
        longest, sums = wide, reach
    widest = (
        sum(digits) + len(digits) - 1,
        max(longest.values()) + len(digits) - 2,
        max(len("(%s,%s)" % (pf.i, pf.j)) for entries in walk.last.values() for *_, pf in entries),
        max(map(len, map(weight.__getitem__, set().union(*sums.values())))),
    )
    return [max(len(column), w) for column, w in zip(_BRANCH_COLUMNS, widest)]


def _branch_text(walk, den: int):
    """The lines of the branch text table, padded to `_branch_widths`."""
    kac = _Texts("(%s,%s,%s)".__mod__)
    weights = _Texts(lambda num: rat(Fraction(num, den)))
    widths = _branch_widths(walk, kac, weights)
    yield _header(_BRANCH_COLUMNS, widths)
    pf = "%%-%ds  " % widths[2]

    def end(last, head: int, mid: int):
        index, vir = "%%-%ds  " % (widths[0] - head), "%%-%ds  " % (widths[1] - mid)
        return [(index % b, vir % kac[lab] + pf % ("(%s,%s)" % (p.i, p.j)), h) for b, lab, h, p in last]

    # the width pass has met every numerator a row reaches
    tails = {num: text.ljust(widths[3]) + "\n" for num, text in weights.items()}
    yield from _branch_lines(walk, kac, end, tails)


def _branch_json(depth: int, walk, den: int):
    pad = "\n" + "  " * (depth + 2)  # the items of a row's arrays
    start, sep, close = "[" + pad, "," + pad, pad[:-2] + "]"
    kac = _Texts(f"[{pad}  %s,{pad}  %s,{pad}  %s{pad}]".__mod__)
    # the row template, cut at its four values
    before, to_vir, to_pf, to_weight, after = _template(_BRANCH_COLUMNS, depth).split("%s")
    index, pf = "%s" + close + to_vir, close + to_pf + start + "%s" + sep + "%s" + close + to_weight

    def end(last, *_):
        return [(index % b, kac[lab] + pf % (p.i, p.j), h) for b, lab, h, p in last]

    weights = _Texts(lambda num: _str(rat(Fraction(num, den))) + after)
    return _branch_lines(walk, kac, end, weights, (before + start, sep), (start, sep))
