"""Randomized structural laws.

The example-based suites pin exact values; these tests draw random labels
and codes and check the algebraic identities that must hold everywhere:
canonical forms are idempotent, group laws agree with vector arithmetic,
closed-form norms agree with the search oracle, and the monodromy pairing
is biadditive and consistent with conformal weights.  The integer orbit
sweep is compared with two references on frozen dataclasses: the sweep it
replaced, and an enumerator that rebuilds the orbit of every label.  The
integer label table behind the realization and extension-monodromy suites is
compared with the public per-label functions, and the slot fold with
enumeration of every index tuple, on one-residue states and on the
several-residue states of the realization predicate.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
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
    all_irr_labels,
    b_ext,
    character_of,
    even_part_code,
    fuse,
    label_table,
    orbits,
    realize,
    sc_ext_weight,
    stabilizer,
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
from pfkit.verify import (
    _first_failing,
    _monodromy_rows,
    _realization_steps,
)
from pfkit.zkcodes import Case, classify_code, span


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


def assert_census_matches_reference(code):
    got = [(o.members, o.stabilizer, o.character, o.min_weight) for o in orbits(code)]
    assert got == orbits_by_dataclass(code)
    assert got == orbits_by_minimum(code)


class TestOrbitSweep:
    @settings(max_examples=40, deadline=None)
    @given(census_codes())
    def test_matches_reference_enumerator(self, code):
        assert_census_matches_reference(code)
        if code.case is Case.B:
            even = even_part_code(code)
            assert set(even.words) == set(code.even_part)
            assert_census_matches_reference(even)

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
