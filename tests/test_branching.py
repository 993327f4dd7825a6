"""Virasoro data and the coset decomposition into minimal-model factors."""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pfkit.branching
from pfkit import (
    CapExceededError,
    InvalidInputError,
    PfLabel,
    VerificationError,
    VirasoroLabel,
    branch,
    branch_tail,
    canonicalize,
    coset_labels,
    locate_pf,
    min_norm,
    pf_canonicalize,
    pf_labels,
    vacuum,
    vir_c,
    vir_canonicalize,
    vir_h,
)
from pfkit.branching import (
    BRANCH_MAX_LEVEL,
    BranchComponent,
    component_count,
    weight_den,
)
from pfkit.errors import check_int, check_ints
from pfkit.parafermion import pf_weight


def branch_by_product(k, j, bits):
    """Reference oracle: the per-component loop over the full index product,
    rebuilding every Kac label and weight sum for each component."""
    check_int(k, "level", 2)
    if k > BRANCH_MAX_LEVEL:
        raise CapExceededError(
            f"branching is capped at rank {BRANCH_MAX_LEVEL}, got {k}"
        )
    bits = check_ints(bits, "bit vector", 2, k)
    partial = []
    total = 0
    for b in bits:
        total += b
        partial.append(total)
    choices = [
        [i for i in range(s + 1) if i % 2 == partial[s - 1] % 2]
        for s in range(1, k + 1)
    ]
    out = []
    for tup in product(*choices):
        vir = tuple(
            vir_canonicalize(s, tup[s - 1] + 1, tup[s] + 1)
            for s in range(1, k)
        )
        hsum = sum(
            (vir_h(s, tup[s - 1] + 1, tup[s] + 1) for s in range(1, k)),
            Fraction(0),
        )
        pf = pf_canonicalize(k, tup[-1], j + (tup[-1] - partial[-1]) // 2)
        weight = hsum + pf_weight(k, pf.i, pf.j)
        out.append(BranchComponent(tup, vir, pf, weight))
    return tuple(out)


def test_vir_c_values():
    assert vir_c(1) == Fraction(1, 2)
    assert vir_c(2) == Fraction(7, 10)
    assert vir_c(3) == Fraction(4, 5)


def test_vir_h_examples():
    for m in range(1, 8):
        assert vir_h(m, 1, 1) == 0
    assert vir_h(1, 1, 3) == Fraction(1, 2)
    assert vir_h(1, 2, 2) == Fraction(1, 16)
    assert vir_h(2, 1, 3) == Fraction(3, 5)


def test_vir_h_respects_kac_symmetry():
    for m in range(1, 7):
        for r in range(1, m + 2):
            for s in range(1, m + 3):
                assert vir_h(m, r, s) == vir_h(m, m + 2 - r, m + 3 - s)


def test_vir_canonicalize():
    lab = vir_canonicalize(1, 1, 2)
    assert lab == VirasoroLabel(1, 2, 2)
    assert 1 <= lab.s <= lab.r <= lab.m + 1
    assert vir_canonicalize(1, 2, 2) == lab


def test_vir_h_range_check():
    with pytest.raises(InvalidInputError):
        vir_h(1, 0, 1)
    with pytest.raises(InvalidInputError):
        vir_h(1, 1, 5)
    # a float index must not hit the cache entry of the equal integer
    vir_h(2, 1, 1)
    with pytest.raises(InvalidInputError):
        vir_h(2.0, 1, 1)


def test_branch_k2_vacuum_coset():
    comps = branch(2, 0, (0, 0))
    assert len(comps) == 2
    by_indices = {c.indices: c for c in comps}
    assert by_indices[(0, 0)].weight == 0
    assert by_indices[(0, 0)].pf == vacuum(2)
    assert by_indices[(0, 2)].weight == 1
    assert by_indices[(0, 2)].pf == PfLabel(2, 2, 1)


def test_branch_k2_shifted_coset():
    comps = branch(2, 1, (0, 0))
    wts = sorted(c.weight for c in comps)
    assert wts[0] == Fraction(1, 2)
    assert min(wts) == min_norm(canonicalize(2, 1, (0, 0))) / 2


def test_branch_all_zero_component_only_for_zero_bits():
    comps = branch(3, 1, (0, 0, 0))
    lead = [c for c in comps if all(i == 0 for i in c.indices)]
    assert len(lead) == 1
    assert lead[0].pf == pf_canonicalize(3, 0, 1)
    comps = branch(3, 1, (1, 0, 0))
    assert not [c for c in comps if all(i == 0 for i in c.indices)]


def test_branch_parity_constraint():
    for k, j, bits in [(3, 0, (1, 0, 1)), (4, 2, (0, 1, 1, 0))]:
        for c in branch(k, j, bits):
            partial = 0
            for s in range(k):
                partial += bits[s]
                assert c.indices[s] % 2 == partial % 2
                assert 0 <= c.indices[s] <= s + 1


def test_branch_component_count_independent_of_j():
    for k in (2, 3, 4, 5):
        for bits_weight_split in [(0,) * k, (1,) + (0,) * (k - 1)]:
            sizes = {len(branch(k, j, bits_weight_split)) for j in range(k)}
            assert len(sizes) == 1
    # zero bit vector: product of floor(s/2)+1
    for k in (2, 3, 4, 5, 6):
        expect = 1
        for s in range(1, k + 1):
            expect *= s // 2 + 1
        assert len(branch(k, 0, (0,) * k)) == expect


def test_branch_respects_coset_relabeling():
    for k in (2, 3, 4, 5):
        for lab in coset_labels(k):
            j, bits = lab.j, lab.bits
            other_j = (j - sum(bits)) % k
            other_bits = tuple(1 - b for b in bits)
            mine = Counter(
                (c.virasoro, c.pf, c.weight) for c in branch(k, j, bits)
            )
            theirs = Counter(
                (c.virasoro, c.pf, c.weight)
                for c in branch(k, other_j, other_bits)
            )
            assert mine == theirs


def test_branch_matches_product_reference_on_every_raw_selector():
    for k in range(2, 7):
        for j in range(-k, 2 * k):
            for bits in product((0, 1), repeat=k):
                assert branch(k, j, bits) == branch_by_product(k, j, bits)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_branch_matches_product_reference_at_k7_k8(data):
    k = data.draw(st.sampled_from((7, 8)))
    j = data.draw(st.integers(-k, 2 * k - 1))
    bits = data.draw(st.tuples(*[st.integers(0, 1)] * k))
    assert branch(k, j, bits) == branch_by_product(k, j, bits)


@pytest.mark.parametrize(
    "j, bits", [(1, (1, 1, 0, 0, 0, 0, 0, 0)), (0, (1, 0, 1, 1, 0, 1, 0, 0))]
)
def test_branch_builds_each_kac_label_once_per_step(monkeypatch, j, bits):
    calls = []
    real = pfkit.branching.vir_canonicalize

    def counting(m, r, s):
        calls.append((m, r, s))
        return real(m, r, s)

    monkeypatch.setattr(pfkit.branching, "vir_canonicalize", counting)
    comps = branch(8, j, bits)
    steps = {(s, c.indices[s - 1] + 1, c.indices[s] + 1) for c in comps for s in range(1, 8)}
    assert len(calls) == len(set(calls))
    assert set(calls) == steps
    assert len(calls) < len(comps)


def test_branch_shares_labels_and_weights():
    comps = branch(8, 1, (1, 1, 0, 0, 0, 0, 0, 0))
    labels = {id(lab) for c in comps for lab in c.virasoro}
    assert len(labels) == len({lab for c in comps for lab in c.virasoro})
    assert len({id(c.pf) for c in comps}) == len({c.pf for c in comps})
    assert len({id(c.weight) for c in comps}) == len({c.weight for c in comps})


@pytest.mark.parametrize("k", range(2, 8))
def test_walk_with_text_pieces_is_the_join_of_the_default_walk(k):
    # one walk for rows and writers: the payloads built piece by piece from
    # each parent equal the joins of the default call's tuples
    for lab in coset_labels(k):
        walk = pfkit.branching._walk(k, lab.j, lab.bits, vir_canonicalize)
        texts = walk(lambda i: f"{i},", lambda v: f"({v.m},{v.r},{v.s}) ", ("<", "["))
        rows = 0
        for (prefix, vir, hnum, last), (head, mid, num, entries) in zip(walk(), texts, strict=True):
            assert type(prefix) is type(vir) is tuple and len(prefix) == k - 1
            assert head == "<" + "".join(f"{i}," for i in prefix)
            assert mid == "[" + "".join(f"({v.m},{v.r},{v.s}) " for v in vir)
            assert num == hnum and entries is last
            rows += len(last)
        assert rows == component_count(k, lab.bits)


def test_component_count_matches_branch():
    for k in range(2, 8):
        for bits in product((0, 1), repeat=k):
            assert component_count(k, bits) == len(branch(k, 0, bits))
    assert component_count(11, (0,) * 11) == 2 * 2 * 3 * 3 * 4 * 4 * 5 * 5 * 6 * 6
    with pytest.raises(InvalidInputError):
        component_count(3, (1, 1))


def test_weight_den_clears_every_weight():
    for k in range(2, 7):
        den = weight_den(k)
        for lab in coset_labels(k):
            for c in branch(k, lab.j, lab.bits):
                assert (c.weight * den).denominator == 1


def test_branch_level_guard():
    with pytest.raises(CapExceededError):
        branch(11, 0, (0,) * 11)


def test_branch_tail_k3_tables():
    even = branch_tail(3, 0, 0)
    assert [(v.weight, str(x)) for v, x in even] == [
        (Fraction(0), "(3,0)"),
        (Fraction(3, 5), "(2,1)"),
    ]
    odd = branch_tail(3, 0, 1)
    assert [(v.weight, str(x)) for v, x in odd] == [
        (Fraction(1, 10), "(1,0)"),
        (Fraction(3, 2), "(3,1)"),
    ]


def test_branch_tail_leading_term():
    for k in (2, 3, 4, 6):
        for j in range(k):
            head = branch_tail(k, j, 0)[0]
            assert head[0].weight == 0
            assert head[1] == pf_canonicalize(k, 0, j)


def test_branch_tail_labels_inequivalent():
    for k in range(2, 9):
        for j in range(k):
            for d in (0, 1):
                found = [x for _, x in branch_tail(k, j, d)]
                assert len(set(found)) == len(found)


def test_branch_tail_matches_full_branch():
    # the tail decomposition is the full one on the coset (j, (0,..,0,d))
    # restricted to components whose leading indices all vanish
    for k in (3, 4):
        for j in range(k):
            for d in (0, 1):
                bits = (0,) * (k - 1) + (d,)
                full = branch(k, j, bits)
                lead = sorted(
                    (c.virasoro[-1], c.pf)
                    for c in full
                    if all(i == 0 for i in c.indices[: k - 1])
                )
                assert lead == sorted(branch_tail(k, j, d))


def test_locate_pf_examples():
    assert locate_pf(vacuum(4), 0) == 0
    assert locate_pf(pf_canonicalize(4, 2, 1), 0) == 0
    assert locate_pf(pf_canonicalize(3, 2, 0), 0) == 2


def test_locate_pf_membership():
    for k in range(2, 9):
        for x in pf_labels(k):
            for d in (0, 1):
                if k % 2 == 0 and x.i % 2 != d:
                    continue
                eta = locate_pf(x, d)
                assert x in [lab for _, lab in branch_tail(k, eta, d)]


def test_locate_pf_parity_obstruction():
    with pytest.raises(InvalidInputError):
        locate_pf(pf_canonicalize(4, 2, 1), 1)


def test_locate_pf_self_check_raises(monkeypatch):
    # a tail list that omits x must fail even under `python -O`
    x = pf_canonicalize(3, 2, 0)
    real = pfkit.branching.branch_tail

    def without_x(k, j, d):
        return tuple(pair for pair in real(k, j, d) if pair[1] != x)

    monkeypatch.setattr(pfkit.branching, "branch_tail", without_x)
    missing = r"\(2,0\) is missing from the tail coset \(2, \(0,\.\.\.,0,0\)\)"
    with pytest.raises(VerificationError, match=missing):
        locate_pf(x, 0)
