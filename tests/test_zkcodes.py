"""Codes over Z_k: spans, duals, classification, binary reduction."""

import time
from itertools import product

import pytest

from pfkit import (
    CapExceededError,
    Case,
    InvalidInputError,
    binary_reduce,
    classify_code,
    code_from_words,
    dual_code,
    inner,
    radical_data,
    span,
)


def test_span_empty_is_zero_code():
    code = span([], 5, 2)
    assert code.words == ((0, 0),)
    assert code.case is Case.A


def test_span_single_generator_cyclic():
    code = span([(1, 2)], 5, 2)
    assert code.words == ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3))
    assert code.size == 5


def test_span_k9_third_roots():
    code = span([(3,)], 9, 1)
    assert code.words == ((0,), (3,), (6,))
    assert code.case is Case.A


def test_span_words_sorted_lexicographically():
    code = span([(2, 1), (0, 3)], 6, 2)
    assert list(code.words) == sorted(code.words)


def test_span_rejects_bad_parameters():
    with pytest.raises(InvalidInputError):
        span([], 1, 1)
    with pytest.raises(InvalidInputError):
        span([], 4, 0)
    with pytest.raises(InvalidInputError):
        span([(4,)], 4, 1)
    with pytest.raises(InvalidInputError):
        span([(1, 2)], 4, 1)


def test_span_cap():
    with pytest.raises(CapExceededError):
        span([(1, 0), (0, 1)], 101, 2, cap=100)


def test_inner_examples():
    assert inner((1, 2), (1, 2), 5) == 0
    assert inner((0, 0, 0), (4, 1, 3), 5) == 0
    assert inner((3,), (3,), 6) == 3
    with pytest.raises(InvalidInputError):
        inner((1,), (1, 0), 3)


def test_classify_case_a():
    code = span([(2,)], 4, 1)
    assert classify_code(code) is Case.A
    assert code.even_part is None and code.odd_part is None


def test_classify_case_b_with_split():
    code = span([(3,)], 6, 1)
    assert classify_code(code) is Case.B
    assert code.even_part == ((0,),)
    assert code.odd_part == ((3,),)


def test_classify_unsupported():
    code = span([(1,)], 3, 1)
    assert classify_code(code) is Case.UNSUPPORTED


def test_classify_permutation_invariant():
    for gens in [((1, 2),), ((2, 0), (0, 2)), ((3, 1),)]:
        code = span(gens, 4, 2)
        flipped = span([g[::-1] for g in gens], 4, 2)
        assert code.case is flipped.case


def test_case_b_parts_partition_the_code():
    for k, gens in [(2, [(1,)]), (6, [(3,)]), (6, [(3, 0), (0, 3)]), (10, [(5, 0)])]:
        code = span(gens, k, len(gens[0]))
        if code.case is not Case.B:
            continue
        assert set(code.even_part) | set(code.odd_part) == set(code.words)
        assert not set(code.even_part) & set(code.odd_part)
        assert len(code.even_part) == len(code.odd_part) == code.size // 2
        # even part is closed under addition, so it is the index-2 subgroup
        for x in code.even_part:
            for y in code.even_part:
                s = tuple((a + b) % k for a, b in zip(x, y))
                assert s in code.even_part


def test_dual_of_full_space_is_zero():
    full = span([(1, 0), (0, 1)], 4, 2)
    assert dual_code(full).words == ((0, 0),)


def test_dual_self_dual_code():
    code = span([(1, 2)], 5, 2)
    dual = dual_code(code)
    assert dual.words == code.words
    assert code.size * dual.size == 5**2


def test_dual_k4_half_code():
    code = span([(2,)], 4, 1)
    assert dual_code(code).words == ((0,), (2,))


def test_dual_involution_small():
    for k, ell in [(2, 2), (3, 2), (4, 1), (5, 1), (6, 2), (4, 3)]:
        for g in product(range(k), repeat=ell):
            code = span([g], k, ell)
            again = dual_code(dual_code(code))
            assert again.words == code.words


def test_code_from_words_requires_closure():
    code = code_from_words(4, 1, [(0,), (2,)])
    assert code.size == 2
    with pytest.raises(InvalidInputError):
        code_from_words(4, 1, [(0,), (1,)])


def test_binary_reduce_examples():
    assert binary_reduce(((0, 0),), 4) == ((0, 0),)
    assert binary_reduce(((0, 0), (2, 2)), 4) == ((0, 0), (1, 1))
    full = binary_reduce(((0, 0), (3, 0), (0, 3), (3, 3)), 6)
    assert full == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_binary_reduce_rejects_stray_entries():
    with pytest.raises(InvalidInputError):
        binary_reduce(((0, 1),), 4)
    with pytest.raises(InvalidInputError):
        binary_reduce(((0,),), 5)


def test_binary_reduce_preserves_gram_table_k2mod4():
    # at k = 2 mod 4 the pairing divided by k/2 matches the binary pairing
    k = 6
    words = ((0, 0), (3, 0), (0, 3), (3, 3))
    image = binary_reduce(words, k)
    for x, bx in zip(words, image):
        for y, by in zip(words, image):
            assert (inner(x, y, k) // 3) % 2 == sum(
                p * q for p, q in zip(bx, by)
            ) % 2


def test_radical_data_examples():
    assert radical_data(((0, 0),)) == (1, 1)
    assert radical_data(((0, 0), (1, 1))) == (2, 1)
    assert radical_data(((0, 0), (1, 0), (0, 1), (1, 1))) == (1, 2)


def test_radical_data_rejects_non_square_index():
    # a length-1 code {0,1} has trivial radical and index 2
    with pytest.raises(InvalidInputError):
        radical_data(((0,), (1,)))


def test_code_from_words_full_binary_code_within_budget():
    # the closure check is quadratic in the word count; 512 words must stay fast
    start = time.perf_counter()
    code = code_from_words(2, 9, product(range(2), repeat=9))
    elapsed = time.perf_counter() - start
    units = [tuple(int(r == c) for c in range(9)) for r in range(9)]
    full = span(units, 2, 9)
    assert (code.words, code.case, code.even_part, code.odd_part) == (
        full.words,
        full.case,
        full.even_part,
        full.odd_part,
    )
    assert elapsed < 5.0, f"code_from_words took {elapsed:.2f}s, budget 5s"
