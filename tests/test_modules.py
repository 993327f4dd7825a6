"""The module census: orbits, characters, twisted counts, realizations."""

import re
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
    UnsupportedCodeError,
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


def test_stabilizer_checks_the_label_shape():
    # unchecked, a level-4 label against a level-6 code had the stabilizer
    # ((0, 0),), read off words of another level
    code = span([(3, 3)], 6, 2)
    for x in (IrrLabel(4, (vacuum(4), vacuum(4))), IrrLabel(6, (vacuum(6),))):
        with pytest.raises(InvalidInputError, match="^label shape does not match the code$"):
            stabilizer(x, code)


@pytest.mark.parametrize("call", [fuse, b_ext])
@pytest.mark.parametrize(
    "xi, message",
    [
        ((1.5, 0), "entry 1.5 is not a residue mod 4"),
        ((5, 0), "entry 5 is not a residue mod 4"),
        ((-1, 0), "entry -1 is not a residue mod 4"),
        (("1", 0), "entry '1' is not a residue mod 4"),
        ((1,), "(1,) has length 1, expected 2"),
    ],
    ids=["float", "another-level", "negative", "string", "length"],
)
def test_fuse_and_b_ext_take_only_residue_words(call, xi, message):
    # unchecked, fuse((1.5, 0), x) gave a label with a factor (3,0.5), and a
    # word of another level was reduced mod k
    x = IrrLabel(4, (one(4, 1, 0).factors[0], vacuum(4)))
    with pytest.raises(InvalidInputError, match=f"^codeword {re.escape(message)}$"):
        call(xi, x)


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
    # the walk visits no label twice, and fuses directly only the first
    # orbit minimum of each half mask
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


def test_orbits_look_up_the_dual_basis_once_per_walk():
    # each lookup hashes every word of the code
    code = span([(2, 2, 0, 0), (0, 0, 2, 2)], 4, 4)
    modules._dual_words.cache_clear()
    orbits(code)
    info = modules._dual_words.cache_info()
    assert (info.hits, info.misses) == (0, 1)


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


def corrupt_fuse(monkeypatch, k, p, a, b):
    """Serve a level-k label table whose current p sends factor a to b."""
    table = modules.label_table(k)
    row = table.fuse[p]
    bad_row = row[:a] + (b,) + row[a + 1 :]
    bad = replace(table, fuse=table.fuse[:p] + (bad_row,) + table.fuse[p + 1 :])
    monkeypatch.setattr(modules, "label_table", lambda level: bad)


def test_orbits_catch_a_corrupted_fusion_entry_at_odd_level(monkeypatch):
    # at odd k every label has the empty half mask, so the walk fuses only
    # the first minimum, (1,0); a current fixing it must reach the full
    # check, which names it
    a = modules.label_table(3).labels.index(pf_canonicalize(3, 1, 0))
    corrupt_fuse(monkeypatch, 3, 1, a, a)
    with pytest.raises(VerificationError, match=r"direct fusion at \(1,0\)$"):
        orbits(span([(1,)], 3, 1))


def test_orbits_catch_orbit_sizes_that_miss_the_label_count(monkeypatch):
    # the walk's sizes rest on its pivots: with d_1 = 2 instead of 1, it
    # takes two labels of each of the two classes of size 3, so the sizes
    # add up to 12 over 6 labels
    real = modules._pivot
    monkeypatch.setattr(modules, "_pivot", lambda code, moduli: real(code, moduli) + 1)
    with pytest.raises(VerificationError, match="^orbit sizes add up to 12, not to the 6 labels$"):
        orbits(span([(1,)], 3, 1))


def test_orbits_catch_a_fusion_entry_off_its_class(monkeypatch):
    # the current 2 sends (1,0) to (2,0), not (2,1): no stabilizer and no
    # orbit minimum changes, but the entry breaks the closed class rule
    table = modules.label_table(3)
    a, b, c = (table.labels.index(pf_canonicalize(3, *f)) for f in ((1, 0), (2, 0), (2, 1)))
    assert table.fuse[2][a] == c
    corrupt_fuse(monkeypatch, 3, 2, a, b)
    with pytest.raises(VerificationError, match=r"^the current 2 sends \(1,0\) to \(2,0\), off its fusion class$"):
        orbits(span([(1,)], 3, 1))


def class_columns_by_scan(table):
    """The fusion-class columns read off the `fuse` table: the smallest
    factor the currents reach from each factor, the current that reaches the
    factor from there, and the number of factors the currents reach."""
    fuse, n = table.fuse, len(table.labels)
    base = tuple(min(row[a] for row in fuse) for a in range(n))
    position = tuple(next(p for p, row in enumerate(fuse) if row[b] == a) for a, b in enumerate(base))
    modulus = tuple(len({row[a] for row in fuse}) for a in range(n))
    return base, position, modulus


def test_class_columns_follow_the_closed_rule_and_match_scans_of_fuse():
    for k in range(2, 61):
        table = modules.label_table(k)
        assert (table.base, table.position, table.modulus) == class_columns_by_scan(table), k


@pytest.mark.parametrize(
    "k, gens, ell, image",
    [(3, [(1,)], 1, "(2,1)"), (5, [(1, 2, 0, 0)], 4, "(4,3)"), (4, [(2, 2)], 2, "(3,2)")],
    ids=["k3-ell1", "k5-ell4", "k4-ell2"],
)
def test_orbits_catch_a_mirrored_sc_fuse(monkeypatch, k, gens, ell, image):
    # with p acting as -p the fusion table is wrong but self-consistent: a
    # group has the same orbits, stabilizers and minima under it, so only
    # the class rule, which is not read off that table, can catch it
    real = modules.sc_fuse
    monkeypatch.setattr(modules, "sc_fuse", lambda p, x: real(-p, x))
    modules.label_table.cache_clear()
    try:
        with pytest.raises(VerificationError, match=re.escape(f"the current 1 sends (1,0) to {image}, off its fusion class")):
            orbits(span(gens, k, ell))
    finally:
        modules.label_table.cache_clear()


def test_orbit_cap():
    with pytest.raises(CapExceededError):
        orbits(span([(2,)], 4, 1), cap=5)


def test_caps_trip_before_the_walk_starts(monkeypatch):
    # the label-space cap trips before any pivot, walk node or record is
    # built
    built = Counter()

    def record(name):
        real = getattr(modules, name)

        def recorded(*args):
            built[name] += 1
            return real(*args)

        monkeypatch.setattr(modules, name, recorded)

    record("_pivot")
    record("OrbitRecord")
    code = span([], 2, 3)
    assert len(orbits(code)) == 27
    # one pivot per prefix of moduli: 2 + 4 + 8 at k = 2, ell = 3
    assert built == {"_pivot": 14, "OrbitRecord": 27}
    built.clear()
    with pytest.raises(CapExceededError, match="^label space of size 27 exceeds the cap of 26$"):
        orbits(code, cap=26)
    assert not built


def test_orbit_records_hold_index_tuples():
    # a record keeps its representative's index tuple and the orbit size;
    # the members are recomputed from the |D| fusions of the representative
    code = span([(2, 2, 0), (0, 2, 2)], 4, 3)
    table = modules.label_table(4)
    orbs = orbits(code)
    stabilizers = {}
    for orb in orbs:
        assert orb.code is code
        assert orb.index == orb.indices[0] == min(orb.indices)
        assert orb.size == len(orb.indices) == code.size // len(orb.stabilizer)
        assert orb.members == tuple(map(table.label, orb.indices))
        assert orb.representative == orb.members[0]
        assert orb.min_weight == min(map(tensor_weight, orb.members))
        stabilizers.setdefault(orb.stabilizer, orb.stabilizer)
    assert len(stabilizers) > 2
    # the shared code takes no part in comparing, hashing or printing a record
    orb = orbs[0]
    other = replace(orb, code=span([(2, 2, 0), (0, 2, 2)], 4, 3))
    assert other.code is not orb.code and other == orb and hash(other) == hash(orb)
    assert "code=" not in repr(orb)


@pytest.mark.parametrize("k,ell", [(2, 3), (3, 2), (4, 2), (5, 2)])
def test_label_table_text_matches_label_str(k, ell):
    table = modules.label_table(k)
    for index in product(range(len(table.labels)), repeat=ell):
        assert table.text(index) == str(table.label(index))


def test_walk_memory_stays_below_the_label_count():
    # the seen map of the label sweep took n**ell bytes; the walk keeps the
    # records and |D| running sums per slot.  Orbit count times |D| is at
    # least n**ell, so a code whose few orbits are large shows the
    # difference: Z_3^9 has 2^9 orbits, |D| = 3^9, and 6^9 labels, past the
    # default cap
    ell = 9
    code = span([tuple(int(r == s) for r in range(ell)) for s in range(ell)], 3, ell)
    total = modules.label_space_size(3, ell, cap=10**8)
    assert total > modules.DEFAULT_ORBIT_CAP
    modules.label_table(3)
    modules._dual_words(code)
    tracemalloc.start()
    try:
        orbs = orbits(code, cap=total)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(orbs) == 2**ell
    assert peak < total


def test_census_peak_memory_is_bounded():
    # records are constant-size: a sweep keeping every member's index tuple
    # peaked near 5.0 MB here, and one building all 50,625 labels near 9.3 MB
    code = span([(1, 2, 0, 0), (0, 0, 1, 2)], 5, 4)
    modules.label_table(5)
    modules._dual_words(code)
    tracemalloc.start()
    try:
        orbits(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000


def test_induced_free_orbit():
    code = span([(2,)], 4, 1)
    orb = next(o for o in orbits(code) if len(o.stabilizer) == 1)
    rep = induced_decomposition(orb)
    assert rep.regime is Regime.FREE
    assert rep.num_irreducibles == 1 and rep.multiplicity == 1
    assert sorted(x for x, _ in rep.constituents) == sorted(orb.members)
    assert all(m == 1 for _, m in rep.constituents)


def test_induced_fixed_k0mod4():
    code = span([(2,)], 4, 1)
    orb = next(o for o in orbits(code) if str(o.representative) == "(2,0)")
    rep = induced_decomposition(orb)
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
        rep = induced_decomposition(orb)
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


@pytest.mark.parametrize("chi", [(1.7, 0), ("2", "0"), (Fraction(1), 0)], ids=["float", "string", "fraction"])
def test_count_twisted_rejects_entries_that_are_not_ints(chi):
    # int() once truncated (1.7, 0) to (1, 0) and parsed ("2", "0")
    with pytest.raises(InvalidInputError, match="^character entry .* is not an integer$"):
        count_twisted(span([(2, 2)], 4, 2), chi)


def test_count_twisted_reduces_int_entries_mod_k():
    code = span([(2, 2)], 4, 2)
    assert count_twisted(code, (5, -3)) == count_twisted(code, (1, 1)) == 32
    # a bool is not an integer input, though it is an int subclass
    with pytest.raises(InvalidInputError, match="^character entry True is not an integer$"):
        count_twisted(code, (True, 0))


@pytest.mark.parametrize(
    "chi, message",
    [
        (modules.Character(6, (1, 1)), "^character of level 6 given for a code of level 4$"),
        (modules.Character(4, (1, 1, 0)), "^codeword \\(1, 1, 0\\) has length 3, expected 2$"),
    ],
    ids=["level", "length"],
)
def test_count_twisted_rejects_a_character_of_another_shape(chi, message):
    # the level-6 character once counted as the k=4 word (1, 1): 32
    with pytest.raises(InvalidInputError, match=message):
        count_twisted(span([(2, 2)], 4, 2), chi)


@pytest.mark.parametrize(
    "gens, k, error, message",
    [
        ([(3,)], 6, InvalidInputError, "^a half-period \\(Case B\\) code acts through its even part: pass even_part_code\\(code\\)$"),
        ([(1,)], 3, UnsupportedCodeError, "^the module census is defined for even or half-period codes only$"),
    ],
    ids=["case-b", "unsupported"],
)
def test_count_twisted_and_induced_decomposition_take_case_a_codes_only(gens, k, error, message, monkeypatch):
    # on the Case B code both once walked the orbits, then failed at a fixed
    # point with "radical index 2 is not a perfect square"; with (0,)
    # count_twisted returned 6
    code = span(gens, k, 1)
    record = next(o for o in orbits(code) if len(o.stabilizer) > 1 or k % 2)

    def walk(*args):
        raise AssertionError("the code was walked")

    monkeypatch.setattr(modules, "orbits", walk)
    for chi in [(0,), (1,)]:
        with pytest.raises(error, match=message):
            count_twisted(code, chi)
    with pytest.raises(error, match=message):
        induced_decomposition(record)


def test_character_of_lists_no_dual_word():
    # 4^11 > 10^6: listing the dual code tripped its enumeration cap.  The
    # dual is {w : sum(w) = 0 mod 4, w_1 even}, so t = (1, 0, ..., 0)
    # reduces to 0 in every slot but the last, which keeps the sum 1
    code = span([(1,) * 11, (0, 2) + (0,) * 9], 4, 11)
    x = IrrLabel(4, (one(4, 1, 0).factors[0],) + (vacuum(4),) * 10)
    chi = character_of(x, code)
    assert chi == modules.Character(4, (0,) * 10 + (1,))
    assert not chi.trivial


C6 = span([(1, 1, 1)], 6, 3)  # Case B: the even part's records pair up
C5 = span([(1, 2, 0, 0)], 5, 4)
TRIVIAL = (0, 0, 0, 0)


# read unchecked, these records would give 258 pairing rows (the even part's
# give 516), 81 modules (2,025 is right), 0, a VerificationError, 0 and ()
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: caseB_modules(C6, orbits(C6)), "^the orbit records act by another code$"),
        (
            lambda: count_twisted(C5, TRIVIAL, orbits(span([(1, 2, 0, 0), (0, 0, 1, 2)], 5, 4))),
            "^the orbit records act by another code$",
        ),
        (lambda: count_twisted(C5, TRIVIAL, orbits(C5)[:10]), "^orbit sizes add up to 50, not to the 50625 labels$"),
        (lambda: characters(C5, []), "^orbit sizes add up to 0, not to the 50625 labels$"),
        (lambda: count_twisted(C5, TRIVIAL, []), "^orbit sizes add up to 0, not to the 50625 labels$"),
        (lambda: caseB_modules(C6, []), "^orbit sizes add up to 0, not to the 9261 labels$"),
    ],
    ids=["case-b-whole-code", "twisted-other-code", "twisted-first-ten", "characters-none", "twisted-none", "case-b-none"],
)
def test_census_consumers_take_all_the_records_of_their_code_only(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


def test_census_consumers_read_a_generator_of_the_right_records():
    even = orbits(even_part_code(C6))
    assert caseB_modules(C6, (o for o in even)) == caseB_modules(C6)
    assert len(caseB_modules(C6, iter(even))) == 516
    assert count_twisted(C5, TRIVIAL, iter(orbits(C5))) == 2025
    assert characters(C5, iter(orbits(C5))) == characters(C5)


@pytest.mark.parametrize(
    "order",
    [lambda even: even[::-1], lambda even: even[1::-1] + even[2:]],
    ids=["reversed", "first-two-swapped"],
)
def test_caseB_modules_takes_the_records_in_orbit_order_only(order):
    # reversed, the 516 pairs came out in another order, some with the larger
    # member first, as ((2,1)x(1,0)x(3,2), (2,0)x(5,4)x(3,1))
    even = orbits(even_part_code(C6))
    with pytest.raises(InvalidInputError, match="^the orbit records are not in orbit order$"):
        caseB_modules(C6, order(even))


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
        cosets._all_packed,
        cosets._closed_norm,
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
