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

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

from .cosets import ProductCoset, dual_membership
from .errors import (
    CapExceededError,
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
    pf_weight,
    presentations,
    sc_fuse,
)
from .zkcodes import (
    Case,
    Code,
    Codeword,
    binary_reduce,
    check_word,
    code_from_words,  # noqa: F401 -- a module attribute perfbench/tracing.py wraps
    dual_code,
    inner,
    radical_data,
    span,
    word_add,
)

DEFAULT_ORBIT_CAP = 10**7


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


def _check_length(xi: Codeword, x: IrrLabel) -> None:
    if len(xi) != x.ell:
        raise InvalidInputError(
            f"codeword length {len(xi)} != label length {x.ell}"
        )


def fuse(xi: Codeword, x: IrrLabel) -> IrrLabel:
    """Factorwise simple-current fusion of a codeword with a label."""
    _check_length(xi, x)
    return IrrLabel(x.k, tuple(sc_fuse(p, f) for p, f in zip(xi, x.factors)))


def b_ext(xi: Codeword, x: IrrLabel) -> Fraction:
    """Fractional monodromy of the codeword current against the label:
    (xi | mu - 2 nu)/k mod 1, in [0, 1)."""
    _check_length(xi, x)
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
    """

    k: int
    labels: tuple[PfLabel, ...]
    t: tuple[int, ...]
    fuse: tuple[tuple[int, ...], ...]
    weight: tuple[int, ...]
    tail: tuple[tuple[int, int], ...]
    names: tuple[str, ...]

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
    position = {f: a for a, f in enumerate(labels)}
    den = 2 * k * (k + 2)
    return LabelTable(
        k,
        labels,
        tuple((f.i - 2 * f.j) % k for f in labels),
        tuple(tuple(position[sc_fuse(p, f)] for f in labels) for p in range(k)),
        tuple(check_numerator(pf_weight(k, f.i, f.j), den) for f in labels),
        tuple(_tail(f) for f in labels),
        tuple(map(str, labels)),
    )


@lru_cache(maxsize=8)
def _dual_words(code: Code) -> tuple[Codeword, ...]:
    return dual_code(code).words


@dataclass(frozen=True, order=True)
class Character:
    """A linear character of the code, stored as the lexicographically
    smallest member of its coset modulo the dual code."""

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
    """The character whose coset modulo the dual code contains `word`."""
    return Character(code.k, min(word_add(word, w, code.k) for w in _dual_words(code)))


def stabilizer(x: IrrLabel, code: Code) -> tuple[Codeword, ...]:
    """Codewords fixing the label under fusion, checked by `_check_stabilizer`."""
    return _check_stabilizer(code, x.factors, tuple(xi for xi in code.words if fuse(xi, x) == x))


def _check_stabilizer(code: Code, factors, direct: tuple[Codeword, ...]) -> tuple[Codeword, ...]:
    """`direct`, checked against the closed criterion (a nonzero word fixes
    the label of `factors` iff k is even, its entries are 0 or k/2, and each
    k/2 sits on a factor with first index k/2); a mismatch raises VerificationError."""
    half = code.k // 2
    criterion = tuple(
        xi
        for xi in _half_words(code)
        if all(p == 0 or half == f.i for p, f in zip(xi, factors))
    )
    if direct != criterion:
        x = IrrLabel(code.k, tuple(factors))
        raise VerificationError(
            f"stabilizer criterion disagrees with direct fusion at {x}"
        )
    return direct


@lru_cache(maxsize=8)
def _half_words(code: Code) -> tuple[Codeword, ...]:
    """The codewords with every entry 0 or k/2, in code order; at odd k only
    the zero word."""
    allowed = {0, code.k // 2} if code.k % 2 == 0 else {0}
    return tuple(xi for xi in code.words if allowed.issuperset(xi))


@dataclass(frozen=True)
class OrbitRecord:
    """One fusion orbit, in constant size: the representative (the smallest
    member) as a `label_table(code.k)` index tuple, the orbit size
    |D| // |Stab|, the stabilizer (one tuple object per distinct stabilizer
    of a sweep), the character, the minimum constituent weight's numerator
    over `label_table(code.k).weight_den` (a lower bound for any twisted
    grading), and the acting code, shared by every record of a sweep.

    `indices` and `members` recompute the sorted orbit from the |D| integer
    fusions of the representative; `representative` and `min_weight` build
    their values on access."""

    index: tuple[int, ...]
    size: int
    stabilizer: tuple[Codeword, ...]
    character: Character
    weight: int
    code: Code = field(repr=False, compare=False)

    @property
    def indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(set(_images(_fusion_rows(self.code), self.index))))

    @property
    def members(self) -> tuple[IrrLabel, ...]:
        return tuple(map(label_table(self.code.k).label, self.indices))

    @property
    def representative(self) -> IrrLabel:
        return label_table(self.code.k).label(self.index)

    @property
    def min_weight(self) -> Fraction:
        return Fraction(self.weight, label_table(self.code.k).weight_den)


def _fusion_rows(code: Code) -> list[tuple[tuple[int, ...], ...]]:
    """Per codeword, in code order, its per-slot rows of `label_table(k).fuse`."""
    fuse = label_table(code.k).fuse
    return [tuple(fuse[p] for p in xi) for xi in code.words]


def _images(rows, index: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The fusions of a label's index tuple by the `_fusion_rows` `rows`, in
    their order, repeats kept."""
    return [tuple(map(tuple.__getitem__, row, index)) for row in rows]


def orbits(code: Code, cap: int = DEFAULT_ORBIT_CAP) -> tuple[OrbitRecord, ...]:
    """All fusion orbits, in order of their smallest member, as constant-size
    records; raises CapExceededError, before sweeping, when the label space
    or the dual enumeration exceeds its cap, or the seen map does not fit in
    memory.

    One sweep over the index tuples of `label_table(k)`, in label order; an
    n**ell-byte seen map, indexed by mixed radix, marks each label found.
    The first unseen index is the smallest member of a new orbit, and its
    |D| integer fusions, each one sum over per-slot tables of weight and
    position, mark the orbit seen and give its stabilizer and minimum
    weight numerator; no member list is kept or sorted.  The
    stabilizer is checked against its closed criterion: at odd k by
    comparison with the zero word alone, with `_check_stabilizer` naming the
    label on a mismatch, and at even k by `_check_stabilizer`, which reads
    factor labels and builds no label.  Labels whose t-vectors pair alike
    with the generators share a character: `_reduce` runs <= |D| times.
    After the sweep the orbit sizes |D| // |Stab| must add up to the label
    count n**ell (orbit-stabilizer), or VerificationError is raised."""
    k, ell = code.k, code.ell
    total = label_space_size(k, ell, cap)
    _dual_words(code)
    try:
        seen = bytearray(total)
    except MemoryError:
        raise CapExceededError(f"label space of size {total} does not fit in memory") from None
    table = label_table(k)
    n = len(table.labels)
    # per slot and current, each image's weight numerator times `total` plus
    # its mixed-radix position: one sum per codeword gives both for the
    # fused label, and `% total` and `// total` split them
    slot = [
        [tuple(table.weight[f] * total + n ** (ell - 1 - r) * f for f in row) for row in table.fuse]
        for r in range(ell)
    ]
    rows = [tuple(map(list.__getitem__, slot, xi)) for xi in code.words]
    get, t_of = tuple.__getitem__, table.t.__getitem__
    words = code.words
    # with the zero word the only half word (every odd k), the criterion is
    # that word for every label; a mismatch still goes to the full check
    half = _half_words(code)
    alone = half if len(half) == 1 else None
    found: dict[tuple[int, ...], Character] = {}
    shared: dict[tuple[Codeword, ...], tuple[Codeword, ...]] = {}
    out = []
    covered = 0
    for pos, index in enumerate(product(range(n), repeat=ell)):
        if seen[pos]:
            continue
        values = [sum(map(get, row, index)) for row in rows]
        stab = []
        for xi, value in zip(words, values):
            at = value % total
            seen[at] = 1
            if at == pos:
                stab.append(xi)
        stab = tuple(stab)
        if stab != alone:
            _check_stabilizer(code, [table.labels[a] for a in index], stab)
        stab = shared.setdefault(stab, stab)
        t = tuple(map(t_of, index))
        key = tuple(sum(map(mul, g, t)) % k for g in code.generators)
        if key not in found:
            found[key] = _reduce(code, t)
        size = len(words) // len(stab)
        covered += size
        out.append(OrbitRecord(index, size, stab, found[key], min(values) // total, code))
    if covered != total:
        raise VerificationError(
            f"orbit sizes add up to {covered}, not to the {total} labels"
        )
    return tuple(out)


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
    """Split the induced module of an orbit of `orbit.code` into irreducibles.

    Free orbits induce irreducibly.  At a fixed point the count depends on
    the level mod 4: for k = 0 (mod 4) the stabilizer order counts the
    summands with multiplicity one; for k = 2 (mod 4) the stabilizer reduces
    to a binary code whose radical order counts the summands and the square
    root of the radical index is the common multiplicity.
    """
    stab, k = orbit.stabilizer, orbit.code.k
    if len(stab) == 1:
        regime, num, mult = Regime.FREE, 1, 1
    else:
        if k % 2:
            raise VerificationError(
                "internal inconsistency: nontrivial stabilizer at odd level"
            )
        if k % 4 == 0:
            regime, num, mult = Regime.FIXED_K0MOD4, len(stab), 1
        else:
            regime = Regime.FIXED_K2MOD4
            num, mult = radical_data(binary_reduce(stab, k))
    return InducedReport(orbit, regime, num, mult)


def twisted_counts(reports) -> Counter:
    """Per character, the sum of `num_irreducibles` over the induced reports."""
    totals: Counter = Counter()
    for rep in reports:
        totals[rep.orbit.character] += rep.num_irreducibles
    return totals


def count_twisted(code: Code, chi, orbit_list=None, cap: int = DEFAULT_ORBIT_CAP) -> int:
    """Number of inequivalent irreducible chi-twisted modules of the
    extension, for a character given as a residue word mod the dual code:
    its `twisted_counts` entry, at least 1 as every character is realized."""
    word = chi.rep if isinstance(chi, Character) else tuple(int(c) % code.k for c in chi)
    chi = _reduce(code, check_word(word, code.k, code.ell))
    if orbit_list is None:
        orbit_list = orbits(code, cap)
    mine = (induced_decomposition(o) for o in orbit_list if o.character == chi)
    return twisted_counts(mine)[chi]


def characters(code: Code, orbit_list=None, cap: int = DEFAULT_ORBIT_CAP) -> tuple[Character, ...]:
    """The distinct characters realized by orbits, sorted; there are
    exactly |D| of them."""
    if orbit_list is None:
        orbit_list = orbits(code, cap)
    out = tuple(sorted({orb.character for orb in orbit_list}))
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


def caseB_modules(code: Code, cap: int = DEFAULT_ORBIT_CAP, induced=None) -> tuple[CaseBRecord, ...]:
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
    is found on index tuples, with no member list: the minimum of the odd
    row applied to the |D| fusions of the representative, where |D| is the
    even part's size.  A caller holding the even part's induced
    reports, in orbit order, passes them as `induced`; otherwise the even
    part is swept under `cap` and its trivial-character orbits decomposed.
    """
    even = even_part_code(code)
    if induced is None:
        induced = [induced_decomposition(o) for o in orbits(even, cap) if o.character.trivial]
    table = label_table(code.k)
    row = tuple(table.fuse[p] for p in min(code.odd_part))
    rows, get = _fusion_rows(even), tuple.__getitem__
    out = []
    mates = set()
    for report in induced:
        orb = report.orbit
        rep = orb.index
        # odd + odd is even: the odd coset pairs orbits, so a mate is not fused again
        if not orb.character.trivial or rep in mates:
            continue
        mate = min(tuple(map(get, row, y)) for y in _images(rows, rep))
        mates.add(mate)
        if mate != rep:
            verdict = Verdict.FUSED
        elif len(orb.stabilizer) == 1:
            verdict = Verdict.SPLIT
        else:
            verdict = Verdict.INDETERMINATE
        out.append(CaseBRecord((table.label(rep), table.label(mate)), report, verdict))
    return tuple(out)
