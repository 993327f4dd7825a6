"""Coset labels, representatives, minimal norms, pairings, code lattices."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfkit import (
    CapExceededError,
    CosetLabel,
    InvalidInputError,
    ProductCoset,
    UnsupportedCodeError,
    build_code_lattice,
    canonicalize,
    coset_add,
    coset_labels,
    coset_neg,
    coset_of_vector,
    dual_membership,
    identity_label,
    min_norm,
    min_norm_data,
    min_norm_oracle,
    minimizer_count,
    pairing,
    representative,
    span,
    vector,
)
from pfkit.cosets import _add_packed, _pack, _unpack


def test_canonicalize_examples():
    assert canonicalize(3, 0, (0, 0, 0)) == CosetLabel(3, 0, (1, 1, 1))
    assert canonicalize(3, 2, (1, 1, 0)) == CosetLabel(3, 0, (0, 0, 1))
    assert canonicalize(3, 1, (1, 1, 0)) == CosetLabel(3, 1, (1, 1, 0))


def test_canonicalize_idempotent_and_reduces_j():
    lab = canonicalize(4, 7, (1, 0, 0, 1))
    assert canonicalize(4, lab.j, lab.bits) == lab
    assert 0 <= lab.j < sum(lab.bits)


def test_label_count():
    for k in range(2, 9):
        labs = coset_labels(k)
        assert len(labs) == 2 ** (k - 1) * k
        assert len(set(labs)) == len(labs)


def test_identity_is_all_ones():
    assert identity_label(3) == CosetLabel(3, 0, (1, 1, 1))


def test_representative_examples():
    zero = representative(identity_label(4))
    assert all(c == 0 for c in zero.coords)
    assert representative(CosetLabel(3, 0, (1, 0, 0))).coords == (
        Fraction(1, 3),
        Fraction(-1, 6),
        Fraction(-1, 6),
    )
    assert representative(CosetLabel(2, 0, (1, 0))).coords == (
        Fraction(1, 4),
        Fraction(-1, 4),
    )


def test_coset_of_vector_inverts_representative():
    for k in (2, 3, 4, 5):
        for lab in coset_labels(k):
            assert coset_of_vector(representative(lab)) == lab


def test_coset_of_vector_ignores_translation_by_lattice():
    lab = CosetLabel(3, 1, (1, 1, 0))
    beta = vector(3, (1, -1, 0))
    assert coset_of_vector(representative(lab) + beta) == lab


def test_coset_of_vector_rejects_outside_dual():
    with pytest.raises(InvalidInputError):
        coset_of_vector(vector(3, (1, 0, 0)))  # nonzero coordinate sum
    with pytest.raises(InvalidInputError):
        # zero sum, but pairs fractionally against the lattice
        coset_of_vector(vector(3, (Fraction(1, 4), Fraction(-1, 4), 0)))


@pytest.mark.parametrize("j", [1.0, 1.5, "1"])
def test_non_integer_shift_is_invalid_input(j):
    bits = (1, 1, 0)
    with pytest.raises(InvalidInputError, match="coset shift must be an integer"):
        canonicalize(3, j, bits)
    with pytest.raises(InvalidInputError, match="coset shift must be an integer"):
        coset_add(CosetLabel(3, j, bits), CosetLabel(3, 1, bits))
    with pytest.raises(InvalidInputError, match="coset shift must be an integer"):
        coset_neg(CosetLabel(3, j, bits))


def test_tail_bits_are_checked_one_by_one():
    with pytest.raises(InvalidInputError, match="tail bit must be 0 or 1, got 2"):
        ProductCoset.from_tail(3, (0, 1), (1, 2))


def test_coset_add_examples():
    x = CosetLabel(3, 1, (1, 1, 0))
    assert coset_add(x, identity_label(3)) == x
    assert coset_add(x, CosetLabel(3, 0, (0, 1, 1))) == CosetLabel(3, 0, (1, 0, 1))
    half = CosetLabel(2, 0, (1, 0))
    assert coset_add(half, half) == CosetLabel(2, 1, (1, 1))


def test_coset_add_matches_vector_addition():
    for k in (2, 3, 4):
        labs = coset_labels(k)
        for x in labs:
            for y in labs:
                direct = coset_of_vector(representative(x) + representative(y))
                assert coset_add(x, y) == direct


def test_coset_neg_examples():
    assert coset_neg(identity_label(5)) == identity_label(5)
    assert coset_neg(CosetLabel(3, 0, (1, 1, 0))) == CosetLabel(3, 0, (0, 0, 1))
    assert coset_neg(CosetLabel(4, 1, (1, 1, 1, 0))) == CosetLabel(4, 2, (1, 1, 1, 0))


def test_coset_neg_is_group_inverse():
    for k in (2, 3, 4, 5):
        e = identity_label(k)
        for lab in coset_labels(k):
            assert coset_add(lab, coset_neg(lab)) == e
            assert coset_neg(coset_neg(lab)) == lab
            assert coset_of_vector(-representative(lab)) == coset_neg(lab)


def test_min_norm_trivial_coset():
    assert min_norm_data(4, 0, (1, 1, 1, 1)) == (Fraction(0), 1)


def test_min_norm_examples():
    assert min_norm_data(3, 0, (1, 0, 0)) == (Fraction(1, 3), 1)
    assert min_norm_data(4, 1, (1, 1, 0, 0)) == (Fraction(1), 2)
    assert min_norm_data(3, 1, (1, 0, 0)) == (Fraction(1, 3), 1)


def test_min_norm_branches_on_raw_label():
    # j at or above the weight takes the second closed form; the value must
    # still agree with the canonical relabeling
    raw = min_norm_data(5, 3, (1, 1, 0, 0, 0))
    lab = canonicalize(5, 3, (1, 1, 0, 0, 0))
    assert raw == min_norm_data(5, lab.j, lab.bits)


def test_min_norm_label_interface():
    lab = CosetLabel(3, 0, (1, 0, 0))
    assert min_norm(lab) == Fraction(1, 3)
    assert minimizer_count(lab) == 1


def test_k2_norm_multiset():
    norms = sorted(min_norm(lab) for lab in coset_labels(2))
    assert norms == [0, Fraction(1, 4), Fraction(1, 4), 1]


def test_oracle_agrees_with_closed_form_small():
    for k in (2, 3, 4, 5):
        for lab in coset_labels(k):
            assert min_norm_oracle(lab) == (min_norm(lab), minimizer_count(lab))


def test_oracle_rank_guard():
    with pytest.raises(CapExceededError):
        min_norm_oracle(identity_label(13))


def test_norm_parity_constant_on_cosets():
    rng = random.Random(7)
    for k in (2, 3, 5):
        for lab in coset_labels(k):
            r = representative(lab)
            base = r.dot(r)
            for _ in range(5):
                coeffs = [rng.randrange(-2, 3) for _ in range(k - 1)]
                shift = vector(
                    k,
                    tuple(
                        (coeffs[p] if p < k - 1 else 0)
                        - (coeffs[p - 1] if p >= 1 else 0)
                        for p in range(k)
                    ),
                )
                moved = r + shift
                assert (moved.dot(moved) - base) % 2 == 0


def test_pairing_examples():
    triv = ProductCoset.from_word(4, (0,))
    assert pairing(ProductCoset.from_word(4, (2,)), triv) == 0
    assert pairing(ProductCoset.from_word(4, (2,)), ProductCoset.from_word(4, (2,))) == 0
    got = pairing(ProductCoset.from_word(3, (1,)), ProductCoset.from_tail(3, (1,), (1,)))
    assert got == Fraction(2, 3)


def test_pairing_matches_representative_arithmetic():
    for k in (2, 3, 4):
        labs = coset_labels(k)
        for x in labs:
            for y in labs:
                vx, vy = representative(x), representative(y)
                expect = vx.dot(vy) % 1
                assert pairing(x, y) == expect


def test_pairing_symmetric_biadditive():
    labs = coset_labels(3)
    for x in labs:
        for y in labs:
            assert pairing(x, y) == pairing(y, x)
            for z in labs:
                assert pairing(coset_add(x, z), y) == (
                    pairing(x, y) + pairing(z, y)
                ) % 1


def test_build_code_lattice_even_example():
    lat = build_code_lattice(span([(2,)], 4, 1), verify=True)
    assert lat.parity == "even"
    assert lat.discriminant_order == 8


def test_build_code_lattice_odd_example():
    lat = build_code_lattice(span([(3,)], 6, 1))
    assert lat.parity == "odd"


def test_build_code_lattice_rank_two_example():
    lat = build_code_lattice(span([(1, 2)], 5, 2), verify=True)
    assert lat.parity == "even"
    assert lat.discriminant_order == 256


def test_build_code_lattice_rejects_unsupported():
    with pytest.raises(UnsupportedCodeError):
        build_code_lattice(span([(1,)], 3, 1))


def test_dual_membership_examples():
    code = span([(2,)], 4, 1)
    assert dual_membership((0,), (0,), code)
    assert not dual_membership((0,), (1,), code)
    assert dual_membership((1,), (0,), code)


def reference_canonical(k, j, bits):
    """The canonical form by its definition, on tuples."""
    j %= k
    w = sum(bits)
    if j < w:
        return CosetLabel(k, j, tuple(bits))
    return CosetLabel(k, (j - w) % k, tuple(1 - b for b in bits))


def reference_add(x, y):
    """The group law on tuples: XOR of the bits, shift less the overlap."""
    overlap = sum(a & b for a, b in zip(x.bits, y.bits))
    bits = tuple(a ^ b for a, b in zip(x.bits, y.bits))
    return reference_canonical(x.k, x.j + y.j - overlap, bits)


def packed_add(x, y):
    return _unpack(x.k, _add_packed(x.k, _pack(x), _pack(y)))


def check_public_against_kernel(x, y):
    want = reference_add(x, y)
    assert packed_add(x, y) == want
    assert coset_add(x, y) == want
    assert coset_add(y, x) == want
    assert coset_neg(x) == reference_canonical(x.k, x.weight - x.j, x.bits)
    pair = ProductCoset(x.k, (x, y)) + ProductCoset(x.k, (y, x))
    assert pair.labels == (want, want)


@pytest.mark.parametrize("k", range(2, 7))
def test_public_group_law_matches_kernel_on_every_pair(k):
    labels = coset_labels(k)
    packed = [_pack(x) for x in labels]
    # packed canonical labels sort as the labels do
    assert packed == sorted(packed)
    assert [_unpack(k, v) for v in packed] == list(labels)
    for x, y in combinations_with_replacement(labels, 2):
        check_public_against_kernel(x, y)


@st.composite
def raw_pairs(draw):
    k = draw(st.integers(2, 12))

    def raw():
        j = draw(st.integers(-2 * k, 2 * k))
        return j, tuple(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))

    return k, raw(), raw()


@given(raw_pairs())
def test_public_group_law_matches_kernel_random(data):
    k, (i, a), (j, b) = data
    assert canonicalize(k, i, a) == reference_canonical(k, i, a)
    check_public_against_kernel(canonicalize(k, i, a), canonicalize(k, j, b))
