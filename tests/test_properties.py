"""Randomized structural laws.

The example-based suites pin exact values; these tests draw random labels
and codes and check the algebraic identities that must hold everywhere:
canonical forms are idempotent, group laws agree with vector arithmetic,
closed-form norms agree with the search oracle, and the monodromy pairing
is biadditive and consistent with conformal weights.  The orbit walk is
compared with three references: the integer seen-map sweep it replaced,
the sweep on frozen dataclasses before that, and an enumerator that
rebuilds the orbit of every label; its Case B mates with the smallest
fusion of each pair.  The census writers of `build` are compared with the
row dicts of `run`, and permuting a code's slots must keep its census
tallies.  A character, reduced along the Hermite basis of the
dual code's lattice, is compared with the minimum over the brute-force dual
code.  The
integer label table behind the realization and extension-monodromy suites is
compared with the public per-label functions, and the slot fold with
enumeration of every index tuple, on one-residue states and on the
several-residue states of the realization predicate.
"""

import json
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pfkit.cosets import (
    all_labels,
    canonicalize,
    coset_add,
    coset_neg,
    coset_of_vector,
    identity_label,
    min_norm_data,
    min_norm_oracle,
    pairing,
    representative,
)
from pfkit.modules import (
    DEFAULT_ORBIT_CAP,
    OrbitRecord,
    _reduce,
    all_irr_labels,
    b_ext,
    caseB_modules,
    character_of,
    characters,
    count_twisted,
    even_part_code,
    fuse,
    label_space_size,
    label_table,
    orbits,
    realize,
    sc_ext_weight,
    stabilizer,
    stabilizer_regime,
    tensor_weight,
)
from pfkit.parafermion import (
    pf_b,
    pf_canonicalize,
    pf_fixed,
    pf_weight,
    sc_fuse,
    sc_label,
    sc_weight,
    theta_act,
    vacuum,
)
from pfkit.report import JobSpec, build, run, to_json, to_text
from pfkit.verify import (
    _digits,
    _first_failing,
    _monodromy_rows,
    _realization_steps,
)
from pfkit.zkcodes import Case, _dual_rows, classify_code, dual_code, span, word_add


@st.composite
def raw_coset_data(draw, max_k=8):
    k = draw(st.integers(2, max_k))
    j = draw(st.integers(-2 * k, 2 * k))
    bits = tuple(draw(st.integers(0, 1)) for _ in range(k))
    return k, j, bits


@st.composite
def coset_labels(draw, max_k=6, count=1):
    k = draw(st.integers(2, max_k))
    table = all_labels(k)
    pick = st.integers(0, len(table) - 1)
    return tuple(table[draw(pick)] for _ in range(count))


@st.composite
def pf_points(draw, max_k=12):
    k = draw(st.integers(2, max_k))
    i = draw(st.integers(0, k))
    j = draw(st.integers(-k, 2 * k))
    p = draw(st.integers(-k, 2 * k))
    q = draw(st.integers(-k, 2 * k))
    return k, i, j, p, q


@st.composite
def module_points(draw, max_k=5, max_ell=2):
    k = draw(st.integers(2, max_k))
    ell = draw(st.integers(1, max_ell))
    table = all_irr_labels(k, ell)
    x = table[draw(st.integers(0, len(table) - 1))]
    xi = tuple(draw(st.integers(0, k - 1)) for _ in range(ell))
    zeta = tuple(draw(st.integers(0, k - 1)) for _ in range(ell))
    return k, ell, x, xi, zeta


@st.composite
def small_codes(draw, max_k=6, max_ell=2):
    k = draw(st.integers(2, max_k))
    ell = draw(st.integers(1, max_ell))
    rows = draw(st.integers(1, 2))
    gens = tuple(
        tuple(draw(st.integers(0, k - 1)) for _ in range(ell))
        for _ in range(rows)
    )
    return k, ell, gens


@st.composite
def census_codes(draw):
    k = draw(st.integers(2, 6))
    ell = draw(st.integers(1, 3 if k <= 4 else 2))
    rows = draw(st.integers(0, 2))
    gens = tuple(
        tuple(draw(st.integers(0, k - 1)) for _ in range(ell))
        for _ in range(rows)
    )
    return span(gens, k, ell)


def orbits_by_minimum(code):
    """Reference census: build the orbit of every label and keep it only
    when the label is the orbit's smallest member."""
    out = []
    for x in all_irr_labels(code.k, code.ell):
        members = sorted({fuse(xi, x) for xi in code.words})
        if members[0] == x:
            out.append(
                (
                    tuple(members),
                    stabilizer(x, code),
                    character_of(x, code),
                    min(tensor_weight(y) for y in members),
                )
            )
    return out


def orbits_by_dataclass(code, cap=DEFAULT_ORBIT_CAP):
    """Reference census: the label sweep on frozen dataclasses, with a set
    of seen labels and per-orbit stabilizer, character and weight calls."""
    seen = set()
    out = []
    for x in all_irr_labels(code.k, code.ell, cap):
        if x in seen:
            continue
        members = sorted({fuse(xi, x) for xi in code.words})
        seen.update(members)
        out.append(
            (
                tuple(members),
                stabilizer(x, code),
                character_of(x, code),
                min(tensor_weight(y) for y in members),
            )
        )
    return out


def orbits_by_seen_map(code, cap=DEFAULT_ORBIT_CAP):
    """Reference census: the integer label sweep the orbit walk replaced.
    One pass over the index tuples in label order with an n**ell-byte seen
    map; each unseen index starts an orbit, and its |D| fusions mark the
    orbit seen and give its stabilizer and minimum weight numerator."""
    k, ell = code.k, code.ell
    total = label_space_size(k, ell, cap)
    table = label_table(k)
    n = len(table.labels)
    seen = bytearray(total)
    radix = [n ** (ell - 1 - r) for r in range(ell)]
    found, shared, out = {}, {}, []
    for pos, index in enumerate(product(range(n), repeat=ell)):
        if seen[pos]:
            continue
        stab, weights = [], []
        for xi in code.words:
            image = tuple(table.fuse[p][a] for p, a in zip(xi, index))
            at = sum(map(mul, radix, image))
            seen[at] = 1
            if at == pos:
                stab.append(xi)
            weights.append(sum(table.weight[a] for a in image))
        stab = shared.setdefault(tuple(stab), tuple(stab))
        t = tuple(table.t[a] for a in index)
        key = tuple(sum(map(mul, g, t)) % k for g in code.generators)
        if key not in found:
            found[key] = character_of(table.label(index), code)
        out.append(OrbitRecord(index, code.size // len(stab), stab, found[key], min(weights), code))
    assert sum(o.size for o in out) == total
    return tuple(out)


def assert_census_matches_reference(code):
    orbs = orbits(code)
    got = [(o.members, o.stabilizer, o.character, o.min_weight) for o in orbs]
    assert got == orbits_by_dataclass(code)
    reference = orbits_by_minimum(code)
    assert got == reference
    # the constant-size fields against the reference's member lists
    position = {f: a for a, f in enumerate(label_table(code.k).labels)}
    for orb, (members, *_) in zip(orbs, reference):
        assert orb.size == len(members)
        assert orb.representative == members[0]
        assert orb.indices == tuple(sorted(tuple(map(position.__getitem__, y.factors)) for y in members))


@st.composite
def walk_codes(draw, levels=st.integers(2, 12)):
    """Codes up to level 12, with at most about 10^4 labels."""
    k = draw(levels)
    ell = draw(st.integers(1, 4 if k <= 4 else 3 if k <= 6 else 2))
    rows = draw(st.integers(0, 2))
    gens = tuple(
        tuple(draw(st.integers(0, k - 1)) for _ in range(ell))
        for _ in range(rows)
    )
    return span(gens, k, ell)


def assert_mates_match_minimum(code):
    """Each Case B mate is the smallest even-part fusion of the
    representative fused with the odd word."""
    even, odd = even_part_code(code), min(code.odd_part)
    for rec in caseB_modules(code):
        rep, mate = rec.pair
        assert mate == min(fuse(xi, fuse(odd, rep)) for xi in even.words)


class TestOrbitSweep:
    @settings(max_examples=40, deadline=None)
    @given(census_codes())
    def test_matches_reference_enumerator(self, code):
        assert_census_matches_reference(code)
        if code.case is Case.B:
            even = even_part_code(code)
            assert set(even.words) == set(code.even_part)
            assert_census_matches_reference(even)

    @settings(max_examples=150, deadline=None)
    @given(walk_codes())
    def test_walk_matches_the_seen_map_sweep(self, code):
        assert orbits(code) == orbits_by_seen_map(code)
        if code.case is Case.B:
            even = even_part_code(code)
            assert orbits(even) == orbits_by_seen_map(even)
            assert_mates_match_minimum(code)

    @pytest.mark.parametrize(
        "gens,k,ell",
        [
            ([(1,)], 2, 1),
            ([(1, 1)], 4, 2),
            ([(3,)], 6, 1),
            ([(1, 1, 1)], 6, 3),
            ([(3, 3, 0), (0, 3, 3), (1, 1, 1)], 6, 3),
            ([(2, 2, 0), (0, 0, 2)], 8, 3),
            ([(2, 2, 2)], 8, 3),
            ([(5,)], 10, 1),
        ],
    )
    def test_mates_match_minimum_on_case_b_codes(self, gens, k, ell):
        code = span(gens, k, ell)
        assert code.case is Case.B
        assert_mates_match_minimum(code)

    @settings(max_examples=60, deadline=None)
    @given(walk_codes().filter(lambda code: code.case is not Case.UNSUPPORTED))
    def test_report_counts_match_count_twisted(self, code):
        # the report tallies each character's irreducibles in its one pass
        # over the records; `count_twisted` sums them per character
        basis = even_part_code(code) if code.case is Case.B else code
        orbit_list = orbits(basis)
        job = JobSpec(k=code.k, ell=code.ell, generators=code.generators, analyses=("modules",))
        want = [
            {"character": str(chi), "count": count_twisted(basis, chi, orbit_list)}
            for chi in characters(basis, orbit_list)
        ]
        assert run(job)["counts"]["rows"] == want

    @settings(max_examples=40, deadline=None)
    # Case B needs an even level: odd levels would only feed the filter
    @given(walk_codes(st.sampled_from(range(2, 13, 2))).filter(lambda code: code.case is Case.B))
    def test_case_b_pairing_from_records_matches_its_own_walk(self, code):
        records = orbits(even_part_code(code))
        assert caseB_modules(code, records) == caseB_modules(code)

    @settings(max_examples=40, deadline=None)
    @given(walk_codes(st.sampled_from(range(2, 13, 2))).filter(lambda code: code.case is Case.B))
    def test_report_case_b_rows_match_caseB_modules(self, code):
        # the report builds its pairing rows from its orbit rows and the
        # pairing loop `caseB_modules` shares, not from the public records
        job = JobSpec(k=code.k, ell=code.ell, generators=code.generators, analyses=("modules",))
        assert run(job)["case_b"] == [
            {
                "pair": [str(rec.pair[0]), str(rec.pair[1])],
                "verdict": rec.verdict.value,
                "regime": rec.induced.regime.value,
                "num_irreducibles": rec.induced.num_irreducibles,
                "multiplicity": rec.induced.multiplicity,
            }
            for rec in caseB_modules(code)
        ]

    @settings(max_examples=60, deadline=None)
    @given(walk_codes())
    def test_a_walk_holds_one_object_per_character(self, code):
        # the report tallies each character's count by object identity
        recs = orbits(code)
        assert len({id(o.character) for o in recs}) == len({o.character for o in recs})

    @pytest.mark.parametrize("k", range(2, 41))
    def test_label_order_is_position_order_in_each_class(self, k):
        # the fact the walk rests on: the currents act on each fusion class
        # by shifting positions mod the class size, k or k/2, and within a
        # class label order is position order
        table = label_table(k)
        classes = {}
        for a, b in enumerate(table.base):
            classes.setdefault(b, []).append(a)
        for b, members in classes.items():
            m = len(members)
            half = k % 2 == 0 and table.labels[b].i == k // 2
            assert m == (k // 2 if half else k)
            assert [table.position[a] for a in members] == list(range(m))
            for a in members:
                assert table.modulus[a] == m
                for p in range(k):
                    assert table.fuse[p][a] == members[(table.position[a] + p) % m]

    @pytest.mark.parametrize(
        "code",
        [
            # fixed points at k = 0 (mod 4)
            span([(2,)], 4, 1),
            span([(2, 2, 0), (0, 2, 2)], 4, 3),
            span([(4, 4)], 8, 2),
            # fixed points at k = 2 (mod 4)
            span([(3, 3)], 6, 2),
            span([(3, 3, 0), (0, 3, 3)], 6, 3),
            span([(5, 5)], 10, 2),
            even_part_code(span([(1, 1, 1)], 6, 3)),
        ],
        ids=["k4", "k4-two-rows", "k8", "k6", "k6-two-rows", "k10", "k6-even-part"],
    )
    def test_matches_reference_on_fixed_point_codes(self, code):
        assert_census_matches_reference(code)


@st.composite
def fixed_point_codes(draw, residue):
    """Codes at a level k = residue (mod 4) whose acting code holds a
    half-word: an even number of k/2 entries, so the orbit of k/2-class
    labels is a fixed point.  One more generator may make the code Case B;
    it is then its even part that holds the half-word."""
    k = draw(st.sampled_from([k for k in range(2, 13) if k % 4 == residue]))
    ell = draw(st.integers(2, 4 if k <= 4 else 3 if k <= 6 else 2))
    half = draw(st.lists(st.sampled_from(range(ell)), min_size=2, max_size=ell, unique=True).filter(lambda s: len(s) % 2 == 0))
    gens = [tuple(k // 2 if s in half else 0 for s in range(ell))]
    gens += draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * ell), max_size=1))
    return span(gens, k, ell)


def assert_built_census_matches_run(code):
    """`build` writes the census tables from the walk's records: the same
    text and JSON as the row dicts of `run`."""
    job = JobSpec(k=code.k, ell=code.ell, generators=code.generators, analyses=("modules",))
    plain, built = run(job), build(job)
    assert to_json(built) == json.dumps(plain, indent=2)
    assert to_text(built) == to_text(plain)
    return plain


class TestCensusWriters:
    @settings(max_examples=40, deadline=None)
    @given(walk_codes().filter(lambda code: code.case is Case.A))
    def test_match_run_on_case_a_codes(self, code):
        assert_built_census_matches_run(code)

    @settings(max_examples=40, deadline=None)
    @given(walk_codes(st.sampled_from(range(2, 13, 2))).filter(lambda code: code.case is Case.B))
    def test_match_run_on_case_b_codes(self, code):
        assert assert_built_census_matches_run(code)["case_b"]

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("residue, regime", [(0, "Fixed_k0mod4"), (2, "Fixed_k2mod4")])
    def test_match_run_on_fixed_points(self, residue, regime, data):
        code = data.draw(fixed_point_codes(residue).filter(lambda code: code.case is not Case.UNSUPPORTED))
        plain = assert_built_census_matches_run(code)
        assert regime in {row["regime"] for row in plain["orbits"]["rows"]}


def census_tallies(code):
    """The multiset of (size, stabilizer order, weight numerator, regime
    triple, trivial) over the orbits of the acting code, and the Case B
    (verdict, stabilizer order) tally."""
    basis = even_part_code(code) if code.case is Case.B else code
    orbit_tally = Counter(
        (o.size, len(o.stabilizer), o.weight, stabilizer_regime(o.stabilizer, code.k), o.character.trivial)
        for o in orbits(basis)
    )
    pairs = caseB_modules(code) if code.case is Case.B else ()
    return orbit_tally, Counter((rec.verdict, len(rec.induced.orbit.stabilizer)) for rec in pairs)


@st.composite
def permuted_codes(draw):
    """A supported code with k <= 8, ell <= 4 and at most 20,000 labels, and
    the code with its slots permuted."""
    k = draw(st.integers(2, 8))
    n = k * (k + 1) // 2
    ell = draw(st.integers(1, max(e for e in range(1, 5) if n**e <= 20_000)))
    gens = draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * ell), max_size=2))
    code = span(gens, k, ell)
    assume(code.case is not Case.UNSUPPORTED)
    order = draw(st.permutations(range(ell)))
    return code, span([tuple(g[s] for s in order) for g in gens], k, ell)


class TestCensusMetamorphic:
    @settings(max_examples=60, deadline=None)
    @given(permuted_codes())
    def test_permuting_the_slots_keeps_the_census_tallies(self, codes):
        # the walk's pivots depend on slot order, so this exercises it from
        # another side than the reference sweeps
        code, permuted = codes
        assert permuted.case is code.case
        assert census_tallies(permuted) == census_tallies(code)


@st.composite
def codes_with_points(draw):
    """A code of level 2..12 and length <= 5, at most about 10^4 words in
    (Z_k)^ell for the brute-force dual, with residue words and label index
    tuples of its shape."""
    k = draw(st.integers(2, 12))
    ell = draw(st.integers(1, 5 if k <= 6 else 4 if k <= 10 else 3))
    residue = st.integers(0, k - 1)
    factor = st.integers(0, len(label_table(k).labels) - 1)
    gens = draw(st.lists(st.tuples(*[residue] * ell), max_size=3))
    words = draw(st.lists(st.tuples(*[residue] * ell), min_size=1, max_size=6))
    indices = draw(st.lists(st.tuples(*[factor] * ell), min_size=1, max_size=6))
    return span(gens, k, ell), words, indices


def assert_reduction_matches_the_dual_code(code, words, indices):
    """`_dual_rows` is an echelon basis with pivots dividing k, and `_reduce`
    and `character_of` give the smallest member of the coset modulo the
    brute-force `dual_code`."""
    k, ell = code.k, code.ell
    rows = _dual_rows(code)
    assert len(rows) == ell
    for r, row in enumerate(rows):
        assert not any(row[:r]) and row[r] > 0 and k % row[r] == 0
    dual = dual_code(code).words
    table = label_table(k)
    for t in words:
        assert _reduce(code, t).rep == min(word_add(t, w, k) for w in dual)
    for index in indices:
        t = tuple(map(table.t.__getitem__, index))
        assert character_of(table.label(index), code).rep == min(word_add(t, w, k) for w in dual)


class TestCharacterReduction:
    @settings(max_examples=80, deadline=None)
    @given(codes_with_points())
    def test_matches_the_brute_force_dual(self, drawn):
        code, words, indices = drawn
        assert_reduction_matches_the_dual_code(code, words, indices)
        if code.case is Case.B:
            assert_reduction_matches_the_dual_code(even_part_code(code), words, indices)

    @pytest.mark.parametrize(
        "gens,k,ell",
        [([(1,)], 2, 1), ([(1, 1)], 4, 2), ([(1, 1, 1)], 6, 3), ([(2, 2, 0), (0, 0, 2)], 8, 3), ([(5, 5, 5)], 10, 3)],
    )
    def test_matches_the_brute_force_dual_on_case_b_even_parts(self, gens, k, ell):
        code = span(gens, k, ell)
        assert code.case is Case.B
        n = len(label_table(k).labels)
        words = [_digits(i, k, ell) for i in range(0, k**ell, max(1, k**ell // 200))]
        indices = [_digits(i, n, ell) for i in range(0, n**ell, max(1, n**ell // 200))]
        for basis in (code, even_part_code(code)):
            assert_reduction_matches_the_dual_code(basis, words, indices)


class TestVerifyTables:
    """The table routes of the verify suites against the public per-label
    functions, on every label."""

    @settings(max_examples=40, deadline=None)
    @given(census_codes())
    def test_match_public_functions(self, code):
        k = code.k
        table = label_table(k)
        den = table.weight_den
        indices = list(product(range(len(table.labels)), repeat=code.ell))
        if code.case is not Case.UNSUPPORTED:
            basis = even_part_code(code) if code.case is Case.B else code
            steps = _realization_steps(basis)
            rank = len(basis.generators)
            for index in indices:
                x = table.label(index)
                sums = [sum(c) % k for c in zip(*(row[a] for row, a in zip(steps, index)))]
                assert realize(x, basis)[1] is not any(sums[:rank])
                assert character_of(x, basis).trivial is not any(sums[rank:])
        for xi in code.words:
            rows = _monodromy_rows(k, xi)
            for index in indices:
                x = table.label(index)
                fused = tuple(table.fuse[p][a] for p, a in zip(xi, index))
                assert table.label(fused) == fuse(xi, x)
                assert Fraction(sum(table.weight[a] for a in index), den) == tensor_weight(x)
                monodromy = sum(p * table.t[a] for p, a in zip(xi, index)) % k
                assert Fraction(monodromy, k) == b_ext(xi, x)
                assert sum(row[a] for row, a in zip(rows, index)) % den == 0

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                # constant rows make passing row sets common
                st.one_of(
                    st.integers(-9, 9).map(lambda c: (c,) * n),
                    st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(tuple),
                ),
                min_size=1,
                max_size=4,
            )
        ),
        st.integers(1, 6),
    )
    def test_first_failing_matches_enumeration(self, rows, modulus):
        indices = product(*(range(len(row)) for row in rows))
        first = next(
            (i for i in indices if sum(r[a] for r, a in zip(rows, i)) % modulus),
            None,
        )
        # each increment as a state of one residue
        assert _first_failing([[(v,) for v in row] for row in rows], modulus) == first

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda dim: st.tuples(
                st.lists(
                    # repeated and all-zero increments make passing and
                    # late-failing states common
                    st.lists(
                        st.sampled_from([(0,) * dim, (1,) * dim])
                        | st.tuples(*[st.integers(-9, 9)] * dim),
                        min_size=1,
                        max_size=4,
                    ),
                    min_size=1,
                    max_size=4,
                ),
                st.integers(0, dim),
            )
        ),
        st.integers(1, 6),
    )
    def test_first_failing_matches_enumeration_on_several_residues(self, data, modulus):
        # the realization predicate: the first `split` sums vanish all
        # together exactly when the rest do
        steps, split = data

        def fails(sums):
            return any(sums[:split]) != any(sums[split:])

        indices = product(*(range(len(row)) for row in steps))
        first = next(
            (
                i
                for i in indices
                if fails([sum(c) % modulus for c in zip(*(r[a] for r, a in zip(steps, i)))])
            ),
            None,
        )
        assert _first_failing(steps, modulus, fails) == first


class TestCosetCanonicalForm:
    @given(raw_coset_data())
    def test_idempotent_and_in_range(self, data):
        k, j, bits = data
        x = canonicalize(k, j, bits)
        assert 0 <= x.j < sum(x.bits) <= k
        assert canonicalize(k, x.j, x.bits) == x

    @given(raw_coset_data())
    def test_complement_presentation_identified(self, data):
        k, j, bits = data
        flipped = tuple(1 - b for b in bits)
        assert canonicalize(k, j - sum(bits), flipped) == canonicalize(
            k, j, bits
        )

    @given(raw_coset_data())
    def test_shift_is_mod_k(self, data):
        k, j, bits = data
        assert canonicalize(k, j + k, bits) == canonicalize(k, j, bits)


class TestCosetGroup:
    @given(coset_labels(count=2))
    def test_commutative(self, pair):
        x, y = pair
        assert coset_add(x, y) == coset_add(y, x)

    @given(coset_labels(count=3))
    def test_associative(self, triple):
        x, y, z = triple
        assert coset_add(coset_add(x, y), z) == coset_add(x, coset_add(y, z))

    @given(coset_labels())
    def test_identity_and_inverse(self, single):
        (x,) = single
        e = identity_label(x.k)
        assert coset_add(x, e) == x
        assert coset_add(x, coset_neg(x)) == e

    @given(coset_labels(max_k=5, count=2))
    def test_addition_matches_vectors(self, pair):
        x, y = pair
        assert coset_of_vector(
            representative(x) + representative(y)
        ) == coset_add(x, y)

    @given(coset_labels(max_k=5))
    def test_negation_matches_vectors(self, single):
        (x,) = single
        assert coset_of_vector(-representative(x)) == coset_neg(x)


class TestMinimalNorms:
    @settings(max_examples=60, deadline=None)
    @given(coset_labels(max_k=7))
    def test_closed_form_matches_oracle(self, single):
        (x,) = single
        assert (min_norm_data(x.k, x.j, x.bits)) == min_norm_oracle(x)

    @settings(max_examples=60, deadline=None)
    @given(coset_labels(max_k=8), st.randoms(use_true_random=False))
    def test_oracle_ignores_bit_order(self, single, rng):
        (x,) = single
        bits = list(x.bits)
        rng.shuffle(bits)
        assert min_norm_oracle(canonicalize(x.k, x.j, bits)) == min_norm_oracle(x)

    @given(coset_labels(max_k=7))
    def test_negation_preserves_norm_data(self, single):
        (x,) = single
        y = coset_neg(x)
        assert min_norm_data(x.k, x.j, x.bits) == min_norm_data(
            y.k, y.j, y.bits
        )

    @given(coset_labels(max_k=7))
    def test_zero_norm_only_at_identity(self, single):
        (x,) = single
        norm, _ = min_norm_data(x.k, x.j, x.bits)
        assert (norm == 0) == (x == identity_label(x.k))


class TestPairing:
    @given(coset_labels(max_k=5, count=2))
    def test_symmetric(self, pair):
        x, y = pair
        assert pairing(x, y) == pairing(y, x)

    @given(coset_labels(max_k=5, count=3))
    def test_biadditive(self, triple):
        x, y, z = triple
        assert pairing(coset_add(x, y), z) == (
            pairing(x, z) + pairing(y, z)
        ) % 1

    @given(coset_labels(max_k=5))
    def test_identity_pairs_trivially(self, single):
        (x,) = single
        assert pairing(identity_label(x.k), x) == 0


class TestParafermionLabels:
    @given(pf_points())
    def test_canonical_idempotent_and_in_range(self, point):
        k, i, j, _, _ = point
        x = pf_canonicalize(k, i, j)
        assert 0 <= x.j < x.i <= k
        assert pf_canonicalize(k, x.i, x.j) == x

    @given(pf_points())
    def test_identification_preserves_class_and_weight(self, point):
        k, i, j, _, _ = point
        assert pf_canonicalize(k, k - i, j - i) == pf_canonicalize(k, i, j)
        x = pf_canonicalize(k, i, j)
        assert pf_weight(k, i, j) == pf_weight(x.k, x.i, x.j)

    @given(pf_points())
    def test_theta_is_an_involution(self, point):
        k, i, j, _, _ = point
        x = pf_canonicalize(k, i, j)
        assert theta_act(theta_act(x)) == x

    @given(pf_points())
    def test_currents_act(self, point):
        k, i, j, p, q = point
        x = pf_canonicalize(k, i, j)
        assert sc_fuse(p, sc_fuse(q, x)) == sc_fuse(p + q, x)
        assert pf_fixed(p, x) == (sc_fuse(p, x) == x)

    @given(pf_points())
    def test_monodromy_additive_and_tracks_weights(self, point):
        k, i, j, p, q = point
        x = pf_canonicalize(k, i, j)
        assert pf_b(p + q, x) == (pf_b(p, x) + pf_b(q, x)) % 1
        drift = pf_weight(k, x.i, x.j + p) - sc_weight(k, p) - pf_weight(
            k, x.i, x.j
        )
        assert pf_b(p, x) == drift % 1

    @given(pf_points())
    def test_current_self_monodromy_is_twice_its_weight(self, point):
        k, _, _, p, _ = point
        x = sc_label(k, p)
        assert pf_b(p, x) == (2 * sc_weight(k, p)) % 1


class TestCodes:
    @given(small_codes())
    def test_span_is_closed_under_addition(self, shape):
        k, ell, gens = shape
        code = span(gens, k, ell)
        words = set(code.words)
        for u in code.words:
            for v in code.words:
                assert tuple((a + b) % k for a, b in zip(u, v)) in words

    @given(small_codes(max_ell=2), st.randoms(use_true_random=False))
    def test_classification_survives_coordinate_swap(self, shape, rng):
        k, ell, gens = shape
        order = list(range(ell))
        rng.shuffle(order)
        swapped = tuple(tuple(g[s] for s in order) for g in gens)
        assert classify_code(span(swapped, k, ell)) == classify_code(
            span(gens, k, ell)
        )

    @given(small_codes())
    def test_redundant_generators_change_nothing(self, shape):
        k, ell, gens = shape
        code = span(gens, k, ell)
        padded = span(gens + (code.words[-1],), k, ell)
        assert padded.words == code.words
        assert classify_code(padded) == classify_code(code)


class TestExtensionMonodromy:
    @given(module_points())
    def test_factorwise_sum(self, point):
        k, _, x, xi, _ = point
        total = sum(
            (pf_b(p, f) for p, f in zip(xi, x.factors)), Fraction(0)
        )
        assert b_ext(xi, x) == total % 1

    @given(module_points())
    def test_additive_in_the_codeword(self, point):
        k, _, x, xi, zeta = point
        combined = tuple((a + b) % k for a, b in zip(xi, zeta))
        assert b_ext(combined, x) == (b_ext(xi, x) + b_ext(zeta, x)) % 1

    @given(module_points())
    def test_fusion_is_an_action(self, point):
        k, _, x, xi, zeta = point
        combined = tuple((a + b) % k for a, b in zip(xi, zeta))
        assert fuse(xi, fuse(zeta, x)) == fuse(combined, x)

    @given(module_points())
    def test_tracks_tensor_weights(self, point):
        k, _, x, xi, _ = point
        drift = (
            tensor_weight(fuse(xi, x))
            - sc_ext_weight(k, xi)
            - tensor_weight(x)
        )
        assert b_ext(xi, x) == drift % 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(
            [
                (2, 1, ((1,),)),
                (4, 1, ((2,),)),
                (5, 2, ((1, 2),)),
                (6, 1, ((3,),)),
                (6, 2, ((3, 3),)),
                (4, 2, ((2, 0), (0, 2))),
            ]
        ),
        st.integers(0, 10**6),
    )
    def test_character_constant_on_orbits(self, shape, seed):
        # constancy on orbits needs every pairing in {0, k/2}, which is
        # exactly the supported-code condition, so draw from that family
        k, ell, gens = shape
        code = span(gens, k, ell)
        table = all_irr_labels(k, ell)
        x = table[seed % len(table)]
        chi = character_of(x, code)
        for word in code.words:
            assert character_of(fuse(word, x), code) == chi
