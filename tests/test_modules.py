"""The module census: orbits, characters, twisted counts, realizations."""

import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from pfkit import branching, cosets, modules, parafermion
from pfkit import (
    CapExceededError,
    Case,
    InvalidInputError,
    IrrLabel,
    ProductCoset,
    Regime,
    VerificationError,
    Verdict,
    all_irr_labels,
    b_ext,
    caseB_modules,
    character_of,
    characters,
    count_twisted,
    even_part_code,
    fuse,
    induced_decomposition,
    irr_count,
    orbits,
    pairing,
    pf_canonicalize,
    realize,
    sc_ext_weight,
    span,
    stabilizer,
    tensor_weight,
    vacuum,
)


def one(k, i, j):
    return IrrLabel(k, (pf_canonicalize(k, i, j),))


def test_label_universe_size():
    for k, ell in [(2, 1), (4, 1), (3, 2), (4, 2)]:
        labs = all_irr_labels(k, ell)
        assert len(labs) == irr_count(k) ** ell
        assert len(set(labs)) == len(labs)


def test_tensor_weight():
    assert tensor_weight(IrrLabel(4, (vacuum(4), vacuum(4)))) == 0
    both = IrrLabel(4, (pf_canonicalize(4, 2, 1), pf_canonicalize(4, 2, 1)))
    assert tensor_weight(both) == Fraction(2, 3)


def test_sc_ext_weight_examples():
    assert sc_ext_weight(4, (0,)) == 0
    assert sc_ext_weight(6, (3,)) == Fraction(3, 2)
    assert sc_ext_weight(5, (1, 2)) == 2


def test_sc_ext_weight_integrality_case_a():
    for k, gens, ell in [(4, [(2,)], 1), (5, [(1, 2)], 2), (9, [(3,)], 1)]:
        code = span(gens, k, ell)
        assert code.case is Case.A
        for xi in code.words:
            assert sc_ext_weight(k, xi).denominator == 1


def test_fuse_examples():
    x = one(4, 1, 0)
    assert fuse((0,), x) == x
    assert fuse((2,), x) == one(4, 3, 1)
    assert fuse((2,), one(4, 2, 0)) == one(4, 2, 0)


def test_b_ext_examples():
    assert b_ext((0,), one(4, 3, 1)) == 0
    assert b_ext((2,), one(4, 2, 0)) == 0
    assert b_ext((2,), one(4, 1, 0)) == Fraction(1, 2)


def test_b_ext_matches_weight_bookkeeping():
    for k, ell in [(4, 1), (3, 2)]:
        labels = all_irr_labels(k, ell)
        for xi in product(range(k), repeat=ell):
            for x in labels:
                direct = (
                    tensor_weight(fuse(xi, x))
                    - sc_ext_weight(k, xi)
                    - tensor_weight(x)
                ) % 1
                assert b_ext(xi, x) == direct


def test_b_ext_vanishes_on_case_a_code_pairs():
    code = span([(1, 2)], 5, 2)
    for xi in code.words:
        for eta in code.words:
            as_label = IrrLabel(5, tuple(pf_canonicalize(5, 0, e) for e in eta))
            assert b_ext(xi, as_label) == 0


def test_character_examples():
    code = span([(2,)], 4, 1)
    assert character_of(IrrLabel(4, (vacuum(4),)), code).trivial
    assert not character_of(one(4, 1, 0), code).trivial
    assert character_of(one(4, 2, 1), code).trivial


def test_character_constant_on_orbits():
    code = span([(2,)], 4, 1)
    for orb in orbits(code):
        chis = {character_of(x, code) for x in orb.members}
        assert len(chis) == 1
        assert orb.character in chis


def test_stabilizer_examples():
    code = span([(2,)], 4, 1)
    assert stabilizer(IrrLabel(4, (vacuum(4),)), code) == ((0,),)
    assert stabilizer(one(4, 2, 0), code) == ((0,), (2,))
    assert stabilizer(one(4, 4, 1), code) == ((0,),)


def test_orbit_table_k4():
    code = span([(2,)], 4, 1)
    table = {
        tuple(str(m) for m in orb.members): (
            len(orb.stabilizer),
            orb.character.trivial,
            orb.min_weight,
        )
        for orb in orbits(code)
    }
    assert table == {
        ("(2,0)",): (2, True, Fraction(1, 12)),
        ("(2,1)",): (2, True, Fraction(1, 3)),
        ("(1,0)", "(3,1)"): (1, False, Fraction(1, 16)),
        ("(3,0)", "(3,2)"): (1, False, Fraction(1, 16)),
        ("(4,0)", "(4,2)"): (1, True, Fraction(0)),
        ("(4,1)", "(4,3)"): (1, True, Fraction(3, 4)),
    }


def test_orbits_partition_and_counting_identity():
    code = span([(2,)], 4, 1)
    orbs = orbits(code)
    assert sum(o.size for o in orbs) == irr_count(4)
    for o in orbs:
        assert o.size * len(o.stabilizer) == code.size


def test_orbits_trivial_code():
    code = span([], 2, 1)
    assert [o.size for o in orbits(code)] == [1, 1, 1]


@pytest.mark.parametrize(
    "code",
    [
        span([(2,)], 4, 1),
        span([(3, 3)], 6, 2),
        even_part_code(span([(1, 1, 1)], 6, 3)),
    ],
    ids=["k4", "k6", "k6-even-part"],
)
def test_orbits_fuse_each_orbit_once(monkeypatch, code):
    # |D| fusions build each orbit and |D| more test its stabilizer; the
    # sweep never rebuilds an orbit from a label it has already seen
    calls = 0
    real = modules.fuse

    def counted(xi, x):
        nonlocal calls
        calls += 1
        return real(xi, x)

    monkeypatch.setattr(modules, "fuse", counted)
    orbs = orbits(code)
    assert calls <= 2 * len(orbs) * code.size


def test_orbits_reduce_once_per_character_and_never_fuse(monkeypatch):
    # the dataclass sweep reduced once per orbit (2,704 calls here) and
    # fused every codeword twice per orbit
    code = span([(2, 2, 0, 0), (0, 0, 2, 2)], 4, 4)
    calls = Counter()

    def count(name):
        real = getattr(modules, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(modules, name, counted)

    count("_reduce")
    count("fuse")
    assert len(orbits(code)) == 2704
    assert 0 < calls["_reduce"] <= code.size
    assert calls["fuse"] == 0


def test_orbits_catch_a_corrupted_fusion_entry(monkeypatch):
    table = modules.label_table(4)
    a = table.labels.index(pf_canonicalize(4, 2, 0))
    row = table.fuse[2]
    assert row[a] == a
    # (2,0) is fixed by the current 2; send it to (2,1) instead
    bad_row = row[:a] + (a + 1,) + row[a + 1 :]
    bad = replace(table, fuse=table.fuse[:2] + (bad_row,) + table.fuse[3:])
    monkeypatch.setattr(modules, "label_table", lambda k: bad)
    with pytest.raises(VerificationError, match=r"direct fusion at \(2,0\)$"):
        orbits(span([(2,)], 4, 1))


def test_orbit_cap():
    with pytest.raises(CapExceededError):
        orbits(span([(2,)], 4, 1), cap=5)


def test_dual_cap_trips_before_the_seen_map_is_allocated(monkeypatch):
    # at k**ell > 10**6 a raised --orbit-cap lets the label space through,
    # and the n**ell-byte seen map must not be filled before the dual cap trips
    allocated = []

    def recording_bytearray(n):
        allocated.append(n)
        return bytearray(n)

    def over_cap(code):
        raise CapExceededError("dual enumeration of size 1048576 exceeds the cap of 1000000")

    monkeypatch.setattr(modules, "bytearray", recording_bytearray, raising=False)
    code = span([], 2, 3)
    orbits(code)
    assert allocated == [27]
    monkeypatch.setattr(modules, "_dual_words", over_cap)
    with pytest.raises(CapExceededError, match="^dual enumeration"):
        orbits(code)
    assert allocated == [27]
    # the label-space cap still trips first, with its own message
    with pytest.raises(CapExceededError, match="^label space of size 27 exceeds the cap of 26$"):
        orbits(code, cap=26)


def test_orbit_records_hold_index_tuples():
    code = span([(2,)], 4, 1)
    table = modules.label_table(4)
    for orb in orbits(code):
        assert orb.members == tuple(map(table.label, orb.indices))
        assert orb.representative == orb.members[0]
        assert orb.size == len(orb.indices)


def test_census_peak_memory_is_bounded():
    # members stay index tuples; a sweep building all 50,625 labels of this
    # code peaked near 9.3 MB
    code = span([(1, 2, 0, 0), (0, 0, 1, 2)], 5, 4)
    modules.label_table(5)
    modules._dual_words(code)
    tracemalloc.start()
    try:
        orbits(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


def test_induced_free_orbit():
    code = span([(2,)], 4, 1)
    orb = next(o for o in orbits(code) if len(o.stabilizer) == 1)
    rep = induced_decomposition(orb, code)
    assert rep.regime is Regime.FREE
    assert rep.num_irreducibles == 1 and rep.multiplicity == 1
    assert sorted(x for x, _ in rep.constituents) == sorted(orb.members)
    assert all(m == 1 for _, m in rep.constituents)


def test_induced_fixed_k0mod4():
    code = span([(2,)], 4, 1)
    orb = next(o for o in orbits(code) if str(o.representative) == "(2,0)")
    rep = induced_decomposition(orb, code)
    assert rep.regime is Regime.FIXED_K0MOD4
    assert rep.num_irreducibles == 2 and rep.multiplicity == 1
    assert rep.constituents == ((orb.representative, 1),)


def test_induced_fixed_k2mod4():
    code = span([(3, 3)], 6, 2)
    assert code.case is Case.A
    orbs = orbits(code)
    fixed = [o for o in orbs if len(o.stabilizer) > 1]
    assert len(fixed) == 9
    for orb in fixed:
        rep = induced_decomposition(orb, code)
        assert rep.regime is Regime.FIXED_K2MOD4
        assert rep.num_irreducibles == 2 and rep.multiplicity == 1


def test_characters_enumerates_the_dual_group():
    for k, gens, ell in [(4, [(2,)], 1), (5, [(1, 2)], 2), (6, [(3, 3)], 2)]:
        code = span(gens, k, ell)
        chi = characters(code)
        assert len(chi) == code.size
        assert len({str(c) for c in chi}) == len(chi)
        assert sum(1 for c in chi if c.trivial) == 1


def test_count_twisted_k4():
    code = span([(2,)], 4, 1)
    trivial, nontrivial = characters(code)
    if not trivial.trivial:
        trivial, nontrivial = nontrivial, trivial
    assert count_twisted(code, trivial) == 6
    assert count_twisted(code, nontrivial) == 2


def test_count_twisted_no_extension():
    code = span([], 3, 1)
    (only,) = characters(code)
    assert count_twisted(code, only) == irr_count(3)


def test_realize_examples():
    code = span([(2,)], 4, 1)
    coset, member = realize(IrrLabel(4, (vacuum(4),)), code)
    assert member
    assert str(coset.labels[0]) == "0:1111"
    coset, member = realize(one(4, 2, 1), code)
    assert member
    coset, member = realize(one(4, 1, 0), code)
    assert not member


def test_realize_dual_membership_is_character_triviality():
    for k, gens, ell in [(4, [(2,)], 1), (5, [(1, 2)], 2)]:
        code = span(gens, k, ell)
        for x in all_irr_labels(k, ell):
            _, member = realize(x, code)
            assert member == character_of(x, code).trivial


def test_realize_membership_is_integral_pairing_with_the_code():
    code = span([(2,)], 4, 1)
    for x in all_irr_labels(4, 1):
        coset, member = realize(x, code)
        integral = all(
            pairing(ProductCoset.from_word(4, g), coset) == 0
            for g in code.generators
        )
        assert member == integral


def test_even_part_code():
    code = span([(3,)], 6, 1)
    even = even_part_code(code)
    assert even.words == ((0,),)
    assert even.case is Case.A
    with pytest.raises(InvalidInputError):
        even_part_code(span([(2,)], 4, 1))


@pytest.mark.parametrize(
    "gens, k, ell",
    [
        ([(1,)], 2, 1),
        ([(1, 1)], 4, 2),
        ([(3, 0, 0), (0, 3, 0), (2, 2, 2)], 6, 3),
        ([(1, 1, 0, 0), (0, 0, 1, 1), (2, 0, 2, 0)], 4, 4),
    ],
    ids=["k2", "k4", "k6-two-odd", "k4-two-odd"],
)
def test_even_part_code_is_the_even_word_set(gens, k, ell):
    # one or several odd generators, with and without even ones
    code = span(gens, k, ell)
    assert code.case is Case.B
    even = even_part_code(code)
    assert set(even.words) == set(code.even_part)
    assert even.case is Case.A
    assert all(any(g) for g in even.generators)


def test_caseB_k6_table():
    recs = caseB_modules(span([(3,)], 6, 1))
    verdicts = {(str(r.pair[0]), str(r.pair[1])): r.verdict for r in recs}
    assert verdicts[("(6,0)", "(6,3)")] is Verdict.FUSED
    assert verdicts[("(1,0)", "(5,2)")] is Verdict.FUSED
    assert verdicts[("(3,0)", "(3,0)")] is Verdict.SPLIT
    assert verdicts[("(3,1)", "(3,1)")] is Verdict.SPLIT
    assert len(recs) == 12
    fused = sum(1 for r in recs if r.verdict is Verdict.FUSED)
    split = sum(1 for r in recs if r.verdict is Verdict.SPLIT)
    # 9 fused pairs cover 18 orbits; 3 split labels are their own partner
    assert fused == 9 and split == 3
    assert fused * 2 + split == irr_count(6)


def test_caseB_free_fermion():
    recs = caseB_modules(span([(1,)], 2, 1))
    verdicts = {(str(r.pair[0]), str(r.pair[1])): r.verdict for r in recs}
    assert verdicts == {
        ("(2,0)", "(2,1)"): Verdict.FUSED,
        ("(1,0)", "(1,0)"): Verdict.SPLIT,
    }


def test_caseB_rejects_case_a():
    with pytest.raises(InvalidInputError):
        caseB_modules(span([(1, 1)], 2, 2))


def test_caseB_fused_pairs_live_in_distinct_orbits():
    code = span([(3,)], 6, 1)
    even = even_part_code(code)
    orbs = orbits(even)
    home = {}
    for idx, orb in enumerate(orbs):
        for m in orb.members:
            home[m] = idx
    for rec in caseB_modules(code):
        a, b = rec.pair
        if rec.verdict is Verdict.FUSED:
            assert home[a] != home[b]
        else:
            assert home[a] == home[b]


def test_per_code_and_per_level_caches_are_bounded():
    for cache in (
        modules._dual_words,
        modules.label_table,
        cosets.all_labels,
        cosets.representative,
        cosets._residue_table,
        parafermion.all_labels,
        parafermion.pf_weight,
        branching.vir_h,
    ):
        assert cache.cache_info().maxsize is not None, cache.__name__
    # a float level must still miss the integer entries of the weight caches
    assert parafermion.pf_weight.cache_parameters()["typed"]
    assert branching.vir_h.cache_parameters()["typed"]
