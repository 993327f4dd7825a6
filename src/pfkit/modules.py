"""Module census for the code extension of a tensor power of parafermion
algebras.

Labels are ell-tuples of parafermion labels; codewords act factorwise by
simple-current fusion.  The census computes orbits with stabilizers, the
linear character each orbit induces on the code (recorded as a coset modulo
the dual code), induced-module decompositions with exact multiplicities,
per-character counts of irreducible twisted modules, realization cosets
inside the ambient dual lattice, and -- when the extension is a
superalgebra -- the pairing-up of even-part modules with a three-valued
verdict: Fused, Split, or Indeterminate.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import add, attrgetter, itemgetter
from typing import TYPE_CHECKING

from .errors import (
    DEFAULT_ORBIT_CAP,
    InvalidInputError,
    VerificationError,
    check_cap,
    check_numerator,
    check_shape,
)
from .parafermion import (
    PfLabel,
    all_labels,
    irr_count,
    pf_fixed,
    pf_weight,
    presentations,
    sc_fuse,
)
from .zkcodes import (
    Case,
    Code,
    Codeword,
    _coset_minimum,
    _dual_rows,
    _hermite_rows,
    binary_reduce,
    check_word,
    code_from_words,  # noqa: F401 -- a module attribute perfbench/tracing.py wraps
    dual_code,  # noqa: F401 -- a module attribute perfbench/tracing.py wraps
    inner,
    radical_data,
    span,
    word_add,
)

if TYPE_CHECKING:
    from .cosets import ProductCoset


@dataclass(frozen=True, order=True)
class IrrLabel:
    """A module label of the ell-fold tensor algebra: one factor per slot."""

    k: int
    factors: tuple[PfLabel, ...]

    @property
    def ell(self) -> int:
        return len(self.factors)

    def __str__(self) -> str:
        return label_text(map(str, self.factors))


def label_text(factor_texts) -> str:
    """The text of a tensor label, from the texts of its factors in order."""
    return "x".join(factor_texts)


def label_space_size(k: int, ell: int, cap: int = DEFAULT_ORBIT_CAP) -> int:
    """irr_count(k) ** ell; raises CapExceededError when it exceeds the cap."""
    check_shape(k, ell)
    return check_cap("label space of size", irr_count(k) ** ell, cap)


def all_irr_labels(k: int, ell: int, cap: int = DEFAULT_ORBIT_CAP) -> tuple[IrrLabel, ...]:
    """All labels in lexicographic order; raises CapExceededError over the cap."""
    label_space_size(k, ell, cap)
    return tuple(IrrLabel(k, f) for f in product(all_labels(k), repeat=ell))


def tensor_weight(x: IrrLabel) -> Fraction:
    """Conformal weight of a tensor label: the sum over factors."""
    return sum(
        (pf_weight(f.k, f.i, f.j) for f in x.factors), Fraction(0)
    )


def sc_ext_weight(k: int, xi: Codeword) -> Fraction:
    """Conformal weight of the simple current attached to a codeword:
    sum(xi_r) - (xi|xi)/k with entries as residues in [0, k)."""
    xi = check_word(xi, k, len(xi))
    return sum(xi) - Fraction(sum(x * x for x in xi), k)


def fuse(xi: Codeword, x: IrrLabel) -> IrrLabel:
    """Factorwise simple-current fusion of a codeword with a label; the
    codeword must be a word of residues mod x.k of the label's length."""
    xi = check_word(xi, x.k, x.ell)
    return IrrLabel(x.k, tuple(sc_fuse(p, f) for p, f in zip(xi, x.factors)))


def b_ext(xi: Codeword, x: IrrLabel) -> Fraction:
    """Fractional monodromy of the codeword current against the label:
    (xi | mu - 2 nu)/k mod 1, in [0, 1); `xi` is checked as in `fuse`."""
    xi = check_word(xi, x.k, x.ell)
    k = x.k
    t = sum(p * (f.i - 2 * f.j) for p, f in zip(xi, x.factors))
    return Fraction(t % k, k)


@dataclass(frozen=True)
class LabelTable:
    """Integer data of the factor labels at one level.

    Factor `a` is `labels[a]`, in the order of `parafermion.all_labels(k)`,
    so index tuples from `product(range(n), repeat=ell)` run through the
    labels in the order of `all_irr_labels`.  Per factor: `t[a]` is
    (i - 2j) mod k, `fuse[p][a]` the factor of `sc_fuse(p, labels[a])`,
    `weight[a]` the conformal weight times `weight_den` = 2k(k + 2),
    `tail[a]` the realization tail (eta, d) used by `realize`, and
    `names[a]` the text of `labels[a]`.

    The currents split the factors into fusion classes by a closed rule: for
    i' = k - i if 2i > k, else i, factor (i, j) lies in the class of (i', 0)
    (`base`, its smallest factor; (k, 0) if i' = 0) at `position`
    j + (k - i if 2i > k else 0), and the class size `modulus` is k/2 if
    2i = k, else k.  `orbits` checks that `fuse[p][a]` has position
    (position[a] + p) % modulus[a]; in a class, label order is position order.
    """

    k: int
    labels: tuple[PfLabel, ...]
    t: tuple[int, ...]
    fuse: tuple[tuple[int, ...], ...]
    weight: tuple[int, ...]
    tail: tuple[tuple[int, int], ...]
    names: tuple[str, ...]
    base: tuple[int, ...]
    position: tuple[int, ...]
    modulus: tuple[int, ...]

    @property
    def weight_den(self) -> int:
        return 2 * self.k * (self.k + 2)

    def label(self, index: tuple[int, ...]) -> IrrLabel:
        return IrrLabel(self.k, tuple(self.labels[a] for a in index))

    def text(self, index: tuple[int, ...]) -> str:
        """`str(self.label(index))`, built from the factor texts."""
        return label_text(map(self.names.__getitem__, index))


@lru_cache(maxsize=8)
def label_table(k: int) -> LabelTable:
    """The integer label table of level k, built once per level."""
    labels = all_labels(k)
    index = {f: a for a, f in enumerate(labels)}
    den = 2 * k * (k + 2)
    fuse = tuple(tuple(index[sc_fuse(p, f)] for f in labels) for p in range(k))
    turn = [k - f.i if 2 * f.i > k else 0 for f in labels]  # p from (i', 0) to (i, 0)
    return LabelTable(
        k,
        labels,
        tuple((f.i - 2 * f.j) % k for f in labels),
        fuse,
        tuple(check_numerator(pf_weight(k, f.i, f.j), den) for f in labels),
        tuple(_tail(f) for f in labels),
        tuple(map(str, labels)),
        tuple(index[PfLabel(k, t or f.i, 0)] for f, t in zip(labels, turn)),
        tuple(f.j + t for f, t in zip(labels, turn)),
        tuple(k // 2 if 2 * f.i == k else k for f in labels),
    )


@lru_cache(maxsize=8)
def _dual_words(code: Code) -> tuple[tuple[int, ...], ...]:
    """The row Hermite basis of D^perp + k Z^ell (`zkcodes._dual_rows`), one
    per code; no dual word is listed.  The cache keeps the name it had when
    it held the dual code's words, because `perfbench/tracing.py` reads its
    `cache_info()` as `modules.cache.dual_words`."""
    return tuple(map(tuple, _dual_rows(code)))


@dataclass(frozen=True, order=True)
class Character:
    """A linear character of the code, stored as the lexicographically
    smallest member of its coset modulo the dual code, which `_reduce`
    reads off the Hermite basis of the dual code's lattice."""

    k: int
    rep: Codeword

    @property
    def trivial(self) -> bool:
        return not any(self.rep)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.rep)


def _check_label_shape(x: IrrLabel, code: Code) -> None:
    if x.k != code.k or x.ell != code.ell:
        raise InvalidInputError("label shape does not match the code")


def character_of(x: IrrLabel, code: Code) -> Character:
    """The character by which the code acts on the orbit of x, i.e. the
    coset of (mu - 2 nu) modulo the dual code."""
    k = code.k
    _check_label_shape(x, code)
    return _reduce(code, tuple((f.i - 2 * f.j) % k for f in x.factors))


def _reduce(code: Code, word: Codeword) -> Character:
    """The character whose coset modulo the dual code contains `word`: its
    smallest member, `zkcodes._coset_minimum` of `word` along the cached
    basis of D^perp + k Z^ell (`_dual_words`), in ell row steps."""
    return Character(code.k, tuple(_coset_minimum(_dual_words(code), word)))


def stabilizer(x: IrrLabel, code: Code) -> tuple[Codeword, ...]:
    """Codewords fixing the label under fusion, checked by `_check_stabilizer`;
    InvalidInputError unless the label has the code's level and length."""
    _check_label_shape(x, code)
    return _check_stabilizer(code, x.factors, tuple(xi for xi in code.words if fuse(xi, x) == x))


def _check_stabilizer(code: Code, factors, direct: tuple[Codeword, ...]) -> tuple[Codeword, ...]:
    """`direct`, checked against the words whose every entry fixes its factor
    by `parafermion.pf_fixed`; a mismatch raises VerificationError."""
    criterion = tuple(xi for xi in code.words if all(map(pf_fixed, xi, factors)))
    if direct != criterion:
        x = IrrLabel(code.k, tuple(factors))
        raise VerificationError(
            f"stabilizer criterion disagrees with direct fusion at {x}"
        )
    return direct


@dataclass(frozen=True)
class OrbitRecord:
    """One fusion orbit, in constant size: the representative (the smallest
    member) as a `label_table(code.k)` index tuple, the orbit size
    |D| // |Stab|, the stabilizer (one tuple object per half mask of a
    walk), the character (one object per character of a walk), the minimum
    constituent weight's numerator over `label_table(code.k).weight_den` (a
    lower bound for any twisted grading), and the acting code, shared by
    every record of a walk.

    `indices` and `members` recompute the sorted orbit from the |D| integer
    fusions of the representative (`_images`); `representative` and
    `min_weight` build their values on access."""

    index: tuple[int, ...]
    size: int
    stabilizer: tuple[Codeword, ...]
    character: Character
    weight: int
    code: Code = field(repr=False, compare=False)

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(set(_images(self.code, self.index))))

    @property
    def members(self) -> tuple[IrrLabel, ...]:
        return tuple(map(label_table(self.code.k).label, self.indices))

    @property
    def representative(self) -> IrrLabel:
        return label_table(self.code.k).label(self.index)

    @property
    def min_weight(self) -> Fraction:
        return Fraction(self.weight, label_table(self.code.k).weight_den)


def _images(code: Code, index: tuple[int, ...]):
    """The |D| fusions of the label `index` by the codewords, in code order,
    repeats kept, as index tuples of `label_table(code.k)`."""
    fuse = label_table(code.k).fuse
    for xi in code.words:
        yield tuple(map(tuple.__getitem__, map(fuse.__getitem__, xi), index))


def orbits(code: Code, cap: int = DEFAULT_ORBIT_CAP) -> tuple[OrbitRecord, ...]:
    """All fusion orbits, in order of their smallest member, as constant-size
    records; raises CapExceededError, before any label is visited, when the
    label space or the fusion table (k entries per factor label) exceeds
    its cap.  No dual word is listed: a character is reduced along the
    Hermite basis of D^perp + k Z^ell (`_reduce`).

    A current fuses each factor within its fusion class (`LabelTable`), by
    adding xi_r to slot r's position mod m_r, the class modulus.  So the
    orbit of a label is its position vector P plus the lattice L spanned by
    the generators and the m_r e_r, and its smallest member reduces P along
    the row Hermite basis of L: the minima are exactly the labels with
    position P_r < d_r in every slot, d_r the r-th pivot (`_echelon`).  That
    pivot depends only on m_1..m_r, and `_pivot` computes it once per
    prefix of moduli.  A depth-first walk over the slots, each in label
    order, takes only those labels, and so yields the minima in report
    order; no other label is visited.

    The stabilizer is a function of the mask of slots in the half class
    (by `pf_fixed`, the criterion of `_check_stabilizer`): it and the size
    |D| // |Stab| are found once per mask, at its first minimum, from that
    label's |D| direct fusions, which `_check_stabilizer` checks and which
    must not hold a smaller label; the records of a mask share one
    stabilizer tuple.  Along the walk |D| running sums give
    the weight numerators of the fused labels, and the record keeps their
    minimum: at the last slot, the smallest sum over the words with each
    last current is enough.  One running sum packs the pairings of the
    t-vector with the generators; labels pairing alike share a character,
    so `_reduce` runs <= |D| times.  After the walk the orbit sizes must
    add up to the label count n**ell (orbit-stabilizer), and every entry of
    the `sc_fuse` table must follow the closed class rule of `LabelTable`,
    or VerificationError is raised."""
    k, ell = code.k, code.ell
    total = label_space_size(k, ell, cap)
    check_cap("fusion table of size", k * irr_count(k), cap)
    table = label_table(k)
    n, words, gens = len(table.labels), code.words, code.generators
    position, modulus, t_of = table.position, table.modulus, table.t
    # per factor a and current p, the weight numerator of fuse[p][a]
    weight = [tuple(table.weight[row[a]] for row in table.fuse) for a in range(n)]
    # per slot r, xi_r for xi in D, with D ordered by the last current, so
    # that each last current's words are one slice of the running sums
    ordered = sorted(words, key=itemgetter(ell - 1))
    currents = [tuple(xi[r] for xi in ordered) for r in range(ell)]
    last = sorted(set(currents[-1]))
    cuts = [slice(bisect_left(currents[-1], p), bisect_right(currents[-1], p)) for p in last]
    # per slot r and t-value, the pairings (g_r t mod k) of the generators,
    # packed in base `radix`, which no sum over the slots reaches
    radix = ell * (k - 1) + 1
    pairing = [
        [sum(g[r] * t % k * radix**s for s, g in enumerate(gens)) for t in range(k)]
        for r in range(ell)
    ]
    options: dict[tuple[int, int], list[tuple]] = {}  # (slot, mask) -> `take`
    masks: dict[int, tuple[tuple[Codeword, ...], int]] = {}  # -> stabilizer, size
    found: dict[int, Character] = {}  # packed pairing -> character
    by_key: dict[tuple[int, ...], Character] = {}
    out: list[OrbitRecord] = []

    def take(r, mask):
        """The labels a walk with this half mask takes at slot r: each with
        the mask bit it sets, its row of fused weights and its pairings."""
        moduli = tuple(k // 2 if mask >> s & 1 else k for s in range(r))
        # (slot, mask) gives the prefix of moduli: one pivot per class modulus
        pivot = {m: _pivot(code, moduli + (m,)) for m in set(modulus)}
        chosen = []
        for a in range(n):
            if position[a] < pivot[modulus[a]]:
                bit = 1 << r if modulus[a] < k else 0
                chosen.append((a, bit, weight[a].__getitem__, pairing[r][t_of[a]]))
        return chosen

    def stabilized(mask, index):
        stab = _first_minimum(code, table, index)
        masks[mask] = stab, len(words) // len(stab)
        return masks[mask]

    def character(pair, index):
        key = tuple(pair // radix**s % radix % k for s in range(len(gens)))
        if key not in by_key:
            by_key[key] = _reduce(code, tuple(map(t_of.__getitem__, index)))
        found[pair] = by_key[key]
        return by_key[key]

    def walk(r, mask, index, sums, pair):
        step = options.get((r, mask))
        if step is None:
            step = options[r, mask] = take(r, mask)
        if r + 1 < ell:
            col = currents[r]
            for a, bit, fused, paired in step:
                walk(r + 1, mask | bit, index + (a,), list(map(add, sums, map(fused, col))), pair + paired)
            return
        # at the last slot only the smallest sum over the words with each
        # last current matters
        lows = [min(sums[cut]) for cut in cuts]
        for a, bit, fused, paired in step:
            here = index + (a,)
            stab, size = masks.get(mask | bit) or stabilized(mask | bit, here)
            chi = found.get(pair + paired) or character(pair + paired, here)
            out.append(OrbitRecord(here, size, stab, chi, min(map(add, lows, map(fused, last))), code))

    walk(0, 0, (), [0] * len(words), 0)
    covered = sum(map(attrgetter("size"), out))
    if covered != total:
        raise VerificationError(
            f"orbit sizes add up to {covered}, not to the {total} labels"
        )
    # every `sc_fuse` entry against the closed class rule the walk relies on
    member = {(b, p): a for a, (b, p) in enumerate(zip(table.base, position))}
    for p, row in enumerate(table.fuse):
        for a, y in enumerate(row):
            if y != member[table.base[a], (position[a] + p) % modulus[a]]:
                raise VerificationError(
                    f"the current {p} sends {table.names[a]} to {table.names[y]}, off its fusion class"
                )
    return tuple(out)


def _echelon(code: Code, moduli: tuple[int, ...]) -> list[list[int]]:
    """The row Hermite basis (`zkcodes._hermite_rows`) of the lattice spanned
    by the generators cut to the first r = len(moduli) slots and by the
    moduli[s] e_s: r rows, row s with its pivot d_s in column s."""
    r = len(moduli)
    rows = [list(g[:r]) for g in code.generators]
    rows += ([0] * s + [m] + [0] * (r - 1 - s) for s, m in enumerate(moduli))
    return _hermite_rows(rows)


def _pivot(code: Code, moduli: tuple[int, ...]) -> int:
    """d_r for slot r = len(moduli): the last pivot of `_echelon`."""
    return _echelon(code, moduli)[-1][-1]


def _first_minimum(code: Code, table: LabelTable, index: tuple[int, ...]) -> tuple[Codeword, ...]:
    """The stabilizer of the label `index`, from its |D| direct fusions and
    checked by `_check_stabilizer`; VerificationError unless `index` is the
    smallest of those fusions."""
    smallest, direct = index, []
    for xi, y in zip(code.words, _images(code, index)):
        if y == index:
            direct.append(xi)
        smallest = min(smallest, y)
    stab = _check_stabilizer(code, [table.labels[a] for a in index], tuple(direct))
    if smallest != index:
        raise VerificationError(
            f"orbit walk took {table.text(index)}, but its orbit holds {table.text(smallest)}"
        )
    return stab


class Regime(Enum):
    """How an orbit induces: freely, or at a fixed point (two flavors)."""

    FREE = "FreeOrbit"
    FIXED_K0MOD4 = "Fixed_k0mod4"
    FIXED_K2MOD4 = "Fixed_k2mod4"


@dataclass(frozen=True)
class InducedReport:
    """Decomposition of the module induced from one orbit.

    The induced module splits into `num_irreducibles` inequivalent
    irreducibles; each contains every orbit member with multiplicity
    `multiplicity`, as `constituents` lists, built from the orbit on access.
    """

    orbit: OrbitRecord
    regime: Regime
    num_irreducibles: int
    multiplicity: int

    @property
    def constituents(self) -> tuple[tuple[IrrLabel, int], ...]:
        return tuple((y, self.multiplicity) for y in self.orbit.members)


def induced_decomposition(orbit: OrbitRecord) -> InducedReport:
    """Split the induced module of an orbit of `orbit.code` into irreducibles,
    as `stabilizer_regime` reads its stabilizer."""
    return InducedReport(orbit, *stabilizer_regime(orbit.stabilizer, orbit.code.k))


def stabilizer_regime(stab: tuple[Codeword, ...], k: int) -> tuple[Regime, int, int]:
    """The regime, the number of irreducibles and their common multiplicity
    of the module induced from an orbit at level k with stabilizer `stab`.

    Free orbits induce irreducibly.  At a fixed point the count depends on
    the level mod 4: for k = 0 (mod 4) the stabilizer order counts the
    summands with multiplicity one; for k = 2 (mod 4) the stabilizer reduces
    to a binary code whose radical order counts the summands and the square
    root of the radical index is the common multiplicity.
    """
    if len(stab) == 1:
        return Regime.FREE, 1, 1
    if k % 2:
        raise VerificationError(
            "internal inconsistency: nontrivial stabilizer at odd level"
        )
    if k % 4 == 0:
        return Regime.FIXED_K0MOD4, len(stab), 1
    return (Regime.FIXED_K2MOD4, *radical_data(binary_reduce(stab, k)))


def _records(code: Code, orbit_list, cap: int) -> tuple[OrbitRecord, ...]:
    """`orbit_list` read once into a tuple, or a walk of `code` under `cap`
    when it is None; InvalidInputError unless the records act by `code` and
    their sizes add up to n**ell, as `orbits` checks after its walk."""
    if orbit_list is None:
        return orbits(code, cap)
    records = tuple(orbit_list)
    acting = {id(o.code): o.code for o in records}.values()  # one test per code object
    if any((c.k, c.words) != (code.k, code.words) for c in acting):
        raise InvalidInputError("the orbit records act by another code")
    covered, total = sum(map(attrgetter("size"), records)), irr_count(code.k) ** code.ell
    if covered != total:
        raise InvalidInputError(f"orbit sizes add up to {covered}, not to the {total} labels")
    return records


def count_twisted(code: Code, chi, orbit_list=None, cap: int = DEFAULT_ORBIT_CAP) -> int:
    """Number of inequivalent irreducible chi-twisted modules of the
    extension, for a character given as a residue word mod the dual code:
    the `stabilizer_regime` irreducible counts summed over the orbits with
    that character, at least 1 as every character is realized.  The orbits
    are `orbit_list`, the code's records, or a walk under `cap` (`_records`).
    The entries of a residue word are reduced mod k; one that is not an
    `int` raises InvalidInputError."""
    if isinstance(chi, Character):
        word = chi.rep
    else:
        word = tuple(chi)
        for c in word:
            if not isinstance(c, int):
                raise InvalidInputError(f"character entry {c!r} is not an integer")
        word = tuple(c % code.k for c in word)
    chi = _reduce(code, check_word(word, code.k, code.ell))
    orbit_list = _records(code, orbit_list, cap)
    return sum(stabilizer_regime(o.stabilizer, code.k)[1] for o in orbit_list if o.character == chi)


def characters(code: Code, orbit_list=None, cap: int = DEFAULT_ORBIT_CAP) -> tuple[Character, ...]:
    """The distinct characters realized by the orbits (`_records`), sorted;
    there are exactly |D| of them."""
    orbit_list = _records(code, orbit_list, cap)
    # a walk shares one object per character: hash each object once
    distinct = {id(orb.character): orb.character for orb in orbit_list}
    out = tuple(sorted(set(distinct.values())))
    if len(out) != code.size:
        raise VerificationError(
            f"{len(out)} characters realized, expected {code.size}"
        )
    return out


def realize(x: IrrLabel, code: Code) -> tuple[ProductCoset, bool]:
    """A dual coset containing the label, and whether that coset pairs
    integrally with the whole code lattice.

    Factorwise: the lexicographically smallest representative (i, j) of the
    factor class fixes the tail bit d = i mod 2 and the shift
    eta = j - (i - d)/2.  The membership flag equals the triviality of the
    orbit character.
    """
    from .cosets import ProductCoset, dual_membership

    _check_label_shape(x, code)
    eta, delta = zip(*(_tail(f) for f in x.factors))
    coset = ProductCoset.from_tail(code.k, eta, delta)
    return coset, dual_membership(eta, delta, code)


def _tail(f: PfLabel) -> tuple[int, int]:
    """The realization tail (eta, d) of one factor, as `realize` defines it."""
    i, j = min(presentations(f))
    d = i % 2
    return (j - (i - d) // 2) % f.k, d


class Verdict(Enum):
    """How a pair of even-part modules assembles for the superalgebra."""

    FUSED = "Fused"
    SPLIT = "Split"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class CaseBRecord:
    """One even-part orbit pair with its superalgebra verdict."""

    pair: tuple[IrrLabel, IrrLabel]
    induced: InducedReport
    verdict: Verdict


def even_part_code(code: Code) -> Code:
    """The even part of a half-period code, as a code in its own right.

    On a Case B code, x -> (x|x) mod k is a homomorphism onto {0, k/2},
    and the even part is its kernel: the span of the generators with each
    odd generator g replaced by g + g0, for g0 the first odd one.
    """
    if code.case is not Case.B:
        raise InvalidInputError("even-part analysis needs a half-period (Case B) code")
    k = code.k
    g0 = next(g for g in code.generators if inner(g, g, k))
    gens = [word_add(g, g0, k) if inner(g, g, k) else g for g in code.generators]
    even = span([g for g in gens if any(g)], k, code.ell)
    if even.words != code.even_part:
        raise VerificationError("kernel of the self-pairing is not the even part")
    return even


def caseB_modules(code: Code, orbit_list=None, cap: int = DEFAULT_ORBIT_CAP) -> tuple[CaseBRecord, ...]:
    """Pair up the even-part modules under the odd coset and report verdicts.

    Every irreducible module of the superalgebra restricts to the even part
    as either P + Q with P, Q inequivalent (one module per pair: Fused) or
    as a single P that carries two inequivalent structures (Split).  The
    odd coset maps the orbit of P to the orbit of Q.  Distinct orbits force
    Fused.  Coinciding orbits with trivial stabilizer force Split: the
    induced module is then the unique irreducible with those constituents.
    Coinciding orbits at a fixed point cannot be decided at label level and
    are reported Indeterminate.

    Only trivial-character orbits are processed: those are the ones carrying
    untwisted even-part modules.  Each unordered pair appears once.  A mate
    is found on index tuples, with no member list: the positions of the
    representative fused with the odd word are reduced along the Hermite
    basis of the even part's orbit walk (`orbits`), by the coset rule the
    characters use (`zkcodes._coset_minimum`), to the smallest member of
    its orbit.  `orbit_list` holds the even part's orbit records, in orbit
    order; without it the even part is walked under `cap` (`_records`, which
    raises InvalidInputError on the records of any other code).  Each record
    emitted carries its orbit's `induced_decomposition`.
    """
    even = even_part_code(code)
    orbit_list = _records(even, orbit_list, cap)
    table = label_table(code.k)
    fuse, base, position = table.fuse, table.base, table.position
    odd = tuple(fuse[p] for p in min(code.odd_part))
    bases: dict[tuple[int, ...], list[list[int]]] = {}  # moduli -> `_echelon`
    out = []
    mates = set()
    for orb in orbit_list:
        rep = orb.index
        # odd + odd is even: the odd coset pairs orbits, so a mate is not fused again
        if not orb.character.trivial or rep in mates:
            continue
        moduli = tuple(map(table.modulus.__getitem__, rep))
        if moduli not in bases:
            bases[moduli] = _echelon(even, moduli)
        point = _coset_minimum(bases[moduli], (position[row[a]] for row, a in zip(odd, rep)))
        mate = tuple(fuse[p][base[a]] for p, a in zip(point, rep))
        mates.add(mate)
        if mate != rep:
            verdict = Verdict.FUSED
        elif len(orb.stabilizer) == 1:
            verdict = Verdict.SPLIT
        else:
            verdict = Verdict.INDETERMINATE
        out.append(CaseBRecord((table.label(rep), table.label(mate)), induced_decomposition(orb), verdict))
    return tuple(out)
