"""Cross-check suites behind the `verify` analysis.

Each suite recomputes a family of results by an independent method and
reports pass/fail with the first counterexample.  Suites are deterministic.

The realization and extension-monodromy suites check every label with
integer sums over the level's label table (`modules.label_table`), and
report the first counterexample in the order of `modules.all_irr_labels`.
Their sums split into one term per slot, so `_first_failing` folds
per-slot increments over a small state instead of walking the labels.  Each
also runs a seeded sample of 64 labels through the public per-label
functions, which must agree with the table.

Every suite but `verify_lattice_discriminant` is a check that returns its
first counterexample, or None; `_suite` makes it a `VerifyResult`.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations_with_replacement

from .cosets import (
    ProductCoset,
    _add_packed,
    _coset_of_scaled,
    _pack,
    _scaled,
    _unpack,
    all_labels,
    build_code_lattice,
    check_search_level,
    coset_add,
    coset_neg,
    coset_of_vector,
    identity_label,
    min_norm_data,
    min_norm_oracle,
    pairing,
    representative,
)
from .errors import InvalidInputError, VerificationError, check_numerator
from .modules import (
    IrrLabel,
    b_ext,
    character_of,
    even_part_code,
    fuse,
    label_space_size,
    label_table,
    realize,
    tensor_weight,
)
from .parafermion import all_labels as pf_all_labels
from .parafermion import pf_b
from .parafermion import pf_weight, sc_fuse, sc_weight, vacuum
from .zkcodes import Case, Code, Codeword, word_add


@dataclass(frozen=True)
class VerifyResult:
    name: str
    passed: bool
    detail: str | None = None


def _suite(name: str):
    """A check that returns its first counterexample, or None, as the suite
    `name`: it passes exactly when there is none."""

    def wrap(check):
        @wraps(check)
        def suite(*args, **kwargs) -> VerifyResult:
            detail = check(*args, **kwargs)
            return VerifyResult(name, detail is None, detail)

        return suite

    return wrap


@_suite("minimal_norms")
def verify_minimal_norms(k: int) -> str | None:
    """Closed-form minimal norms and counts vs exhaustive search, every
    canonical coset.  The search depends only on (j, weight), so it runs
    once per pair; a seeded sample of 64 labels must reproduce the memo."""
    check_search_level(k)
    labels = all_labels(k)
    memo = {}
    for lab in labels:
        key = (lab.j, lab.weight)
        if key not in memo:
            memo[key] = min_norm_oracle(lab)
        closed = min_norm_data(k, lab.j, lab.bits)
        if closed != memo[key]:
            return f"label ({lab.j}, {lab.bits}): closed form {closed}, search {memo[key]}"
    for lab in random.Random(k).sample(labels, min(64, len(labels))):
        searched = min_norm_oracle(lab)
        if searched != memo[(lab.j, lab.weight)]:
            return f"label ({lab.j}, {lab.bits}): search {searched} differs from its (j, weight) memo"
    return None


@_suite("coset_group_laws")
def verify_group_laws(k: int) -> str | None:
    """Identity, inverses via the vector oracle, commutativity (all pairs
    for rank <= 6, seeded sample otherwise), seeded associativity, and the
    generator decomposition exhibiting invariant factors (2, ..., 2, 2k).

    Identity and inverses run through the public functions for every
    label, the inverse oracle on 2k-scaled integers, and through
    `representative` and `coset_of_vector` for a seeded sample of 64.  The
    pair laws run on packed labels (`cosets._add_packed`), which 64 seeded
    pairs through `coset_add` must match.  A residue collision or a vector
    outside the dual fails the suite with its message.
    """
    labels = all_labels(k)
    try:
        return _group_law_failure(k, labels)
    except (InvalidInputError, VerificationError) as err:
        return str(err)


def _group_law_failure(k: int, labels) -> str | None:
    e = identity_label(k)
    for x in labels:
        if coset_add(x, e) != x:
            return f"identity fails at {x}"
        oracle = _coset_of_scaled(k, [-c for c in _scaled(x)])
        neg = coset_neg(x)
        if oracle != neg:
            return f"inverse oracle fails at {x}"
        if coset_add(x, neg) != e:
            return f"inverse fails at {x}"
    sample = random.Random(k).sample(labels, min(64, len(labels)))
    for x, y in zip(sample, sample[1:] + sample[:1]):
        if coset_of_vector(-representative(x)) != coset_neg(x):
            return f"public inverse oracle fails at {x}"
        if coset_add(x, y) != _unpack(k, _add_packed(k, _pack(x), _pack(y))):
            return f"public coset_add fails at {x}, {y}"
    packed = [_pack(x) for x in labels]
    rng = random.Random(20240 + k)
    if k <= 6:
        # symmetric in x, y: the first failing ordered pair has x <= y
        pairs = combinations_with_replacement(packed, 2)
    else:
        pairs = [(rng.choice(packed), rng.choice(packed)) for _ in range(2000)]
    for x, y in pairs:
        if _add_packed(k, x, y) != _add_packed(k, y, x):
            return f"commutativity fails at {_unpack(k, x)}, {_unpack(k, y)}"
    for _ in range(2000):
        x, y, z = (rng.choice(packed) for _ in range(3))
        if _add_packed(k, _add_packed(k, x, y), z) != _add_packed(k, x, _add_packed(k, y, z)):
            x, y, z = (_unpack(k, v) for v in (x, y, z))
            return f"associativity fails at {x}, {y}, {z}"
    return _check_invariant_factors(k, packed)


def _check_invariant_factors(k: int, packed) -> str | None:
    """Fold explicit generators of orders (2, ..., 2, 2k) and check that
    their combinations enumerate the whole group of packed labels
    bijectively.  They come from the fundamental weights
    gamma/2k - alpha_p/2, 2k-scaled to 1 - k e_p."""

    def fundamental(p: int) -> list[int]:
        return [1 - k * (q == p) for q in range(k)]

    last = fundamental(k - 1)
    gens = [
        _pack(_coset_of_scaled(k, [a - b for a, b in zip(fundamental(p), last)]))
        for p in range(1, k - 1)
    ]
    g_last = _pack(_coset_of_scaled(k, last))
    e = _pack(identity_label(k))
    for g in gens:
        if _add_packed(k, g, g) != e or g == e:
            return f"generator {_unpack(k, g)} does not have order 2"
    power = g_last
    order = 1
    while power != e:
        power = _add_packed(k, power, g_last)
        order += 1
        if order > 2 * k:
            return "cyclic generator order exceeds 2k"
    if order != 2 * k:
        return f"cyclic generator has order {order}, expected {2 * k}"
    combos = {e}
    cursor = e
    for _ in range(2 * k - 1):
        cursor = _add_packed(k, cursor, g_last)
        combos.add(cursor)
    for g in gens:
        combos |= {_add_packed(k, x, g) for x in combos}
    if len(combos) != len(packed):
        return f"generators span {len(combos)} of {len(packed)} labels"
    return None


@_suite("pairing_forms")
def verify_pairing_forms(k: int) -> str | None:
    """Representative-based pairing vs the closed forms: pure x pure is
    -2 p q / k, pure x tail is p (d - 2 eta) / k, both mod 1."""
    for p in range(k):
        pure_p = ProductCoset.from_word(k, (p,))
        for q in range(k):
            got = pairing(pure_p, ProductCoset.from_word(k, (q,)))
            want = Fraction((-2 * p * q) % k, k)
            if got != want:
                return f"pure {p} x pure {q}: {got} != {want}"
        for eta in range(k):
            for d in (0, 1):
                got = pairing(pure_p, ProductCoset.from_tail(k, (eta,), (d,)))
                want = Fraction((p * (d - 2 * eta)) % k, k)
                if got != want:
                    return f"pure {p} x tail ({eta},{d}): {got} != {want}"
    return None


@_suite("monodromy_laws")
def verify_monodromy_laws(k: int) -> str | None:
    """Closed-form monodromy vs the weight bookkeeping
    h(fusion) - h(current) - h(x) mod 1, plus additivity in the current."""
    labels = pf_all_labels(k)
    b = [[pf_b(p, x) for x in labels] for p in range(k)]
    for p in range(k):
        hp = sc_weight(k, p)
        for x, lhs in zip(labels, b[p]):
            fused = sc_fuse(p, x)
            diff = pf_weight(k, fused.i, fused.j) - hp - pf_weight(k, x.i, x.j)
            if (lhs - diff) % 1 != 0:
                return f"current {p} vs {x}: {lhs} != {diff}"
    for p in range(k):
        for q in range(k):
            for x, lhs, bp, bq in zip(labels, b[(p + q) % k], b[p], b[q]):
                if lhs != (bp + bq) % 1:
                    return f"additivity fails at {p}, {q}, {x}"
    return None


@_suite("realization_duality")
def verify_realization(code: Code, cap: int) -> str | None:
    """Dual membership of the realization coset must equal character
    triviality, for every label.

    Every label is decided with integer sums over the level's label table,
    by two independent routes: the lattice side sums the pairing numerators
    of each slot's tail with the code generators, the code side pairs t with
    the generators.  `_first_failing` folds all 2 * rank sums per slot.  A
    seeded sample of 64 labels must give the same answers through the
    public `realize` and `character_of`.
    """
    basis = even_part_code(code) if code.case is Case.B else code
    k, ell = basis.k, basis.ell
    total = _label_count(k, ell, cap)
    table = label_table(k)
    steps = _realization_steps(basis)
    rank = len(basis.generators)

    def routes(index):
        sums = [sum(c) % k for c in zip(*(row[a] for row, a in zip(steps, index)))]
        return not any(sums[:rank]), not any(sums[rank:])

    index = _first_failing(steps, k, lambda sums: any(sums[:rank]) != any(sums[rank:]))
    if index is not None:
        member, trivial = routes(index)
        eta, delta = zip(*(table.tail[a] for a in index))
        coset = ProductCoset.from_tail(k, eta, delta)
        return f"label {table.label(index)}: member={member}, trivial={trivial} ({coset})"
    for index in _sample(k, len(table.labels), ell, total):
        x = table.label(index)
        public = (realize(x, basis)[1], character_of(x, basis).trivial)
        if public != routes(index):
            return (
                f"label {x}: realize/character_of give member, trivial = "
                f"{public}; the table gives {routes(index)}"
            )
    return None


def _label_count(k: int, ell: int, cap: int) -> int:
    """The label count, checked against the cap and against the range that
    the seeded sample can draw from (a C ssize_t)."""
    return label_space_size(k, ell, min(cap, sys.maxsize))


@lru_cache(maxsize=8)
def _pairing_numerators(k: int) -> tuple[tuple[int, ...], ...]:
    """k * pairing(pure p, tail of factor a), at [p][a], from the coset
    representatives; each (p, eta, d) is paired once."""
    tails = label_table(k).tail
    distinct = sorted(set(tails))
    cosets = [ProductCoset.from_tail(k, (eta,), (d,)) for eta, d in distinct]
    out = []
    for p in range(k):
        pure = ProductCoset.from_word(k, (p,))
        num = dict(zip(distinct, (check_numerator(pairing(pure, y), k) for y in cosets)))
        out.append(tuple(num[tail] for tail in tails))
    return tuple(out)


def _realization_steps(basis: Code) -> list[list[tuple[int, ...]]]:
    """Per slot and factor, the increments of every generator's lattice
    sum, then of its code sum, as numerators over k: the pairing numerator
    of the factor's tail with the generator entry, and the entry times t.
    A label is a dual member (resp. trivial) when all its lattice (resp.
    code) sums are 0 mod k."""
    k, gens = basis.k, basis.generators
    slots = _pairing_numerators(k)
    return [
        [
            tuple(slots[g[s]][a] for g in gens) + tuple(g[s] * c % k for g in gens)
            for a, c in enumerate(label_table(k).t)
        ]
        for s in range(basis.ell)
    ]


def _monodromy_rows(k: int, xi: Codeword) -> list[tuple[int, ...]]:
    """Per slot r and factor a, times 2k(k + 2): W(fuse) - W(a) - H(xi_r)
    - 2(k + 2) (xi_r t(a) mod k), with W the factor weight and H the current
    weight.  A label passes the bookkeeping when its row sum is 0 mod
    2k(k + 2)."""
    table = label_table(k)
    w = table.weight
    rows = []
    for p in xi:
        h = check_numerator(sc_weight(k, p), table.weight_den)
        rows.append(
            tuple(
                w[table.fuse[p][a]] - w[a] - h - 2 * (k + 2) * (p * c % k)
                for a, c in enumerate(table.t)
            )
        )
    return rows


def _first_failing(steps, modulus: int, fails=any) -> tuple[int, ...] | None:
    """The first index tuple in lexicographic order whose state, the sum of
    steps[s][index[s]] over the slots s mod modulus, fails; or None.

    `live(s, state)`, memoized per call, asks whether the state before slot
    s can still fail, over the slot's distinct increments; the first failure
    takes at each slot the first factor that stays live.  The recursion is
    len(steps) + 1 deep, and no memo outgrows the number of index tuples."""

    def move(state, step):
        return tuple((a + b) % modulus for a, b in zip(state, step))

    zero = (0,) * len(steps[0][0])
    distinct = [{move(zero, step) for step in row} for row in steps]

    @lru_cache(maxsize=None)
    def live(s: int, state: tuple[int, ...]) -> bool:
        if s == len(steps):
            return bool(fails(state))
        return any(live(s + 1, move(state, v)) for v in distinct[s])

    if not live(0, zero):
        return None
    index, state = [], zero
    for s, row in enumerate(steps):
        a = next(a for a, step in enumerate(row) if live(s + 1, move(state, step)))
        index.append(a)
        state = move(state, row[a])
    return tuple(index)


def _sample(k: int, n: int, ell: int, total: int) -> list[tuple[int, ...]]:
    """A seeded sample of 64 index tuples (all when fewer), drawn with
    `random.Random(k)` as in `verify_minimal_norms`."""
    picks = random.Random(k).sample(range(total), min(64, total))
    return [_digits(i, n, ell) for i in picks]


def _digits(position: int, n: int, ell: int) -> tuple[int, ...]:
    """The index tuple at `position` in lexicographic order."""
    out = []
    for _ in range(ell):
        position, a = divmod(position, n)
        out.append(a)
    return tuple(reversed(out))


@_suite("extension_monodromy")
def verify_extension_monodromy(code: Code, cap: int) -> str | None:
    """Monodromy of codeword currents: weight bookkeeping, additivity, and
    vanishing on the code itself when the code is even.

    The bookkeeping covers every label with integer rows over the level's
    label table, checked per slot by `_first_failing`; a seeded sample of
    64 labels must give the same fusion, weight and monodromy through the
    public `fuse`, `tensor_weight` and `b_ext`.
    """
    k, ell = code.k, code.ell
    total = _label_count(k, ell, cap)
    table = label_table(k)
    n, den, t, w = len(table.labels), table.weight_den, table.t, table.weight
    step = max(1, total // 64)
    spread = [table.label(_digits(i, n, ell)) for i in range(0, total, step)]
    # the code is closed under addition, so xi + eta has its row here too
    b_rows = {xi: [b_ext(xi, x) for x in spread] for xi in code.words}
    for xi in code.words:
        rows = _monodromy_rows(k, xi)
        index = _first_failing([[(v,) for v in row] for row in rows], den)
        if index is not None:
            got = Fraction(sum(p * t[a] for p, a in zip(xi, index)) % k, k)
            diff = Fraction(
                sum(w[table.fuse[p][a]] - w[a] for p, a in zip(xi, index)), den
            ) - sum(sc_weight(k, p) for p in xi)
            return f"word {xi} vs {table.label(index)}: {got} vs {diff}"
        for eta in code.words:
            merged = b_rows[word_add(xi, eta, k)]
            for x, m, a, b in zip(spread, merged, b_rows[xi], b_rows[eta]):
                if m != (a + b) % 1:
                    return f"additivity fails at {xi}, {eta}, {x}"
    for index in _sample(k, n, ell, total):
        x = table.label(index)
        weight = Fraction(sum(w[a] for a in index), den)
        if tensor_weight(x) != weight:
            return f"label {x}: tensor_weight gives {tensor_weight(x)}, the table {weight}"
        for xi in code.words:
            fused = table.label(tuple(table.fuse[p][a] for p, a in zip(xi, index)))
            monodromy = Fraction(sum(p * t[a] for p, a in zip(xi, index)) % k, k)
            if fuse(xi, x) != fused or b_ext(xi, x) != monodromy:
                return (
                    f"word {xi} vs {x}: fuse/b_ext give {fuse(xi, x)}, "
                    f"{b_ext(xi, x)}; the table {fused}, {monodromy}"
                )
    if code.case is Case.A:
        currents = [fuse(eta, IrrLabel(k, (vacuum(k),) * ell)) for eta in code.words]
        for xi in code.words:
            for eta, x in zip(code.words, currents):
                if b_ext(xi, x) != 0:
                    return f"nonzero monodromy {xi} against code current {eta}"
    return None


def verify_lattice_discriminant(code: Code) -> VerifyResult:
    """Index-formula discriminant vs the Smith-form computation; it passes
    with the order and the invariant factors as its detail."""
    try:
        lat = build_code_lattice(code, verify=True)
    except VerificationError as err:
        return VerifyResult("lattice_discriminant", False, str(err))
    return VerifyResult(
        "lattice_discriminant",
        True,
        f"order {lat.discriminant_order}, factors {list(lat.invariant_factors or ())}",
    )


def run_suites(code: Code, orbit_cap: int) -> tuple[VerifyResult, ...]:
    """The full battery for one job, in fixed order."""
    k = code.k
    out = [
        verify_minimal_norms(k),
        verify_group_laws(k),
        verify_pairing_forms(k),
        verify_monodromy_laws(k),
    ]
    if code.case is not Case.UNSUPPORTED:
        out.append(verify_lattice_discriminant(code))
        out.append(verify_realization(code, orbit_cap))
        out.append(verify_extension_monodromy(code, orbit_cap))
    return tuple(out)
