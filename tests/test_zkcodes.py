"""Codes over Z_k: spans, duals, classification, binary reduction.

`code_from_words` picks generators greedily and checks closure against
them; the references below are the pairwise closure check and the
quadratic subgroup closure it replaced.
"""

import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfkit.zkcodes
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
from pfkit.zkcodes import Code, _classify_words, word_add


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


@pytest.mark.parametrize(
    "gens, k, ell, size",
    [([(1, 0), (0, 1)], 6, 2, 36), ([(2, 0), (0, 3), (2, 3)], 6, 2, 6), ([(1, 1, 0)], 4, 3, 4)],
)
def test_span_cap_is_exact(gens, k, ell, size):
    # a code of exactly `cap` words is allowed, one word more is not
    assert span(gens, k, ell, cap=size).size == size
    with pytest.raises(
        CapExceededError, match=f"span of size at least {size} exceeds the cap of {size - 1}$"
    ):
        span(gens, k, ell, cap=size - 1)


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
    # the closure check costs |C| word additions per generator; 512 words must stay fast
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


def test_binary_reduce_accepts_an_iterator():
    assert binary_reduce(iter(((0, 0), (2, 2))), 4) == ((0, 0), (1, 1))
    with pytest.raises(InvalidInputError, match="collapsed distinct words"):
        binary_reduce(iter(((0, 2), (0, 2))), 4)


def reduce_generators_reference(words, k):
    """Greedy generators of a subgroup given as a word list, by closing the
    span under addition with itself after each new generator."""
    spanned = {(0,) * len(words[0])}
    gens = []
    for w in words:
        if w in spanned:
            continue
        gens.append(w)
        closure = set(spanned)
        frontier = [w]
        while frontier:
            fresh = []
            for v in frontier:
                for u in list(closure):
                    s = word_add(v, u, k)
                    if s not in closure:
                        closure.add(s)
                        fresh.append(s)
            frontier = fresh
        spanned = closure
    return tuple(gens)


def code_from_words_reference(k, ell, words):
    """Closure checked on every pair of members, then greedy generators."""
    member_set = set(words)
    if (0,) * ell not in member_set:
        raise InvalidInputError("a code must contain the zero word")
    members = tuple(sorted(member_set))
    for x in members:
        for y in members:
            if word_add(x, y, k) not in member_set:
                raise InvalidInputError(
                    f"word list is not closed under addition: {x} + {y}"
                )
    gens = reduce_generators_reference(members, k)
    return Code(k, ell, gens, members, *_classify_words(members, k, gens))


def dual_code_reference(code):
    k, ell = code.k, code.ell
    words = [
        w
        for w in product(range(k), repeat=ell)
        if all(inner(g, w, k) == 0 for g in code.generators)
    ]
    return code_from_words_reference(k, ell, words)


@st.composite
def small_spans(draw):
    k = draw(st.integers(2, 8))
    ell = draw(st.integers(1, {2: 7, 3: 5, 4: 4, 5: 3, 6: 3}.get(k, 2)))
    word = st.tuples(*[st.integers(0, k - 1)] * ell)
    return span(draw(st.lists(word, max_size=3)), k, ell)


@settings(max_examples=80, deadline=None)
@given(small_spans())
def test_code_from_words_and_dual_match_the_references(code):
    assert code_from_words(code.k, code.ell, code.words) == code_from_words_reference(
        code.k, code.ell, code.words
    )
    assert dual_code(code) == dual_code_reference(code)


@settings(max_examples=150, deadline=None)
@given(small_spans(), st.data())
def test_code_from_words_rejects_what_the_pairwise_check_rejects(code, data):
    # a code less a few words, plus a few stray ones, may or may not be closed
    k, ell = code.k, code.ell
    dropped = set()
    if code.size > 1:
        dropped = data.draw(st.sets(st.sampled_from(code.words[1:]), max_size=2))
    stray = data.draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * ell), max_size=2))
    words = [w for w in code.words if w not in dropped] + stray
    try:
        expected = code_from_words_reference(k, ell, words)
    except InvalidInputError:
        with pytest.raises(InvalidInputError, match="not closed under addition"):
            code_from_words(k, ell, words)
    else:
        assert code_from_words(k, ell, words) == expected


def count_word_adds(monkeypatch):
    calls = [0]
    real = pfkit.zkcodes.word_add

    def counted(xi, eta, k):
        calls[0] += 1
        return real(xi, eta, k)

    monkeypatch.setattr(pfkit.zkcodes, "word_add", counted)
    return calls


def test_dual_of_zero_code_word_adds(monkeypatch):
    # 5 generators x 1,024 closure checks, 1,023 span words, 5 x 3 multiples
    # (the pairwise check and subgroup closure made 838,178)
    zero = span([], 4, 5)
    calls = count_word_adds(monkeypatch)
    assert dual_code(zero).size == 1024
    assert calls[0] == 6158


def test_full_binary_code_word_adds(monkeypatch):
    # 9 generators x 512 closure checks, 511 span words, 9 x 1 multiples
    # (the pairwise check and subgroup closure made 437,417)
    calls = count_word_adds(monkeypatch)
    assert code_from_words(2, 9, product(range(2), repeat=9)).size == 512
    assert calls[0] == 5128
