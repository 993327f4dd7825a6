"""Acceptance gate.

Eight criteria, each timed against an explicit budget and printed as a
single pass/fail line (run with -s to see them).  They exercise the whole
stack end to end: closed-form norms against the search oracle, group
structure, branching weights, the worked examples, census counting,
monodromy laws, realization cross-checks, and the half-period suite.
"""

import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product

import pytest

from pfkit.branching import branch, branch_tail, locate_pf
from pfkit.cosets import all_labels, min_norm_data, min_norm_oracle
from pfkit.errors import InvalidInputError
from pfkit.modules import (
    IrrLabel,
    Regime,
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
    orbits,
    realize,
    sc_ext_weight,
    tensor_weight,
)
from pfkit.parafermion import (
    all_labels as pf_all_labels,
    central_charge,
    irr_count,
    pf_b,
    pf_weight,
    sc_label,
    sc_weight,
)
from pfkit.verify import verify_group_laws
from pfkit.zkcodes import Case, classify_code, inner, span


def _gate(number: int, name: str, budget: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")
    assert elapsed < budget, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    )


@lru_cache(maxsize=None)
def _subgroup_codes(k: int, ell: int):
    """Every subgroup of (Z_k)^ell for ell <= 2, via two-generator spans."""
    words = list(product(range(k), repeat=ell))
    seen = {}
    for u, v in combinations_with_replacement(words, 2):
        code = span((u, v), k, ell)
        seen.setdefault(code.words, code)
    return tuple(seen.values())


@lru_cache(maxsize=None)
def _census_codes():
    """Case A codes with k <= 6, ell <= 2, at most 12 words."""
    out = []
    for k in range(2, 7):
        for ell in (1, 2):
            for code in _subgroup_codes(k, ell):
                if code.case is Case.A and len(code.words) <= 12:
                    out.append(code)
    return tuple(out)


def _current_label(k: int, word) -> IrrLabel:
    return IrrLabel(k, tuple(sc_label(k, p) for p in word))


def test_criterion_1_minimal_norm_closed_form_matches_search():
    def body():
        for k in range(2, 9):
            for x in all_labels(k):
                assert min_norm_data(k, x.j, x.bits) == min_norm_oracle(x), x

    _gate(1, "minimal norms", 120.0, body)


def test_criterion_2_coset_group_structure():
    def body():
        for k in range(2, 9):
            assert len(all_labels(k)) == 2 ** (k - 1) * k
            result = verify_group_laws(k)
            assert result.passed, result.detail

    _gate(2, "coset group", 10.0, body)


def test_criterion_3_branching_weights_track_lattice_norms():
    def body():
        for k in range(2, 7):
            for x in all_labels(k):
                norm, _ = min_norm_data(k, x.j, x.bits)
                weights = [c.weight for c in branch(k, x.j, x.bits)]
                least = min(weights)
                assert least == norm / 2, x
                for w in weights:
                    gap = w - least
                    assert gap >= 0 and gap.denominator == 1, (x, w)

    _gate(3, "branching weights", 60.0, body)


def test_criterion_4_example_battery():
    def body():
        assert central_charge(2) == Fraction(1, 2)

        four = span(((2,),), 4, 1)
        assert four.case is Case.A
        assert central_charge(4) == 1
        chars = characters(four)
        assert len(chars) == 2
        by_parity = {chi.trivial: count_twisted(four, chi) for chi in chars}
        assert by_parity[True] == 6
        assert by_parity[False] == 2

        five = span(((1, 2),), 5, 2)
        assert five.case is Case.A
        assert len(five.words) == 5
        assert 2 * central_charge(5) == Fraction(16, 7)

        six = span(((3,),), 6, 1)
        assert six.case is Case.B
        assert central_charge(6) == Fraction(5, 4)
        assert sc_ext_weight(6, (3,)) == Fraction(3, 2)

        nine = span(((3,),), 9, 1)
        assert nine.case is Case.A

    _gate(4, "example battery", 5.0, body)


def test_criterion_5_census_counting_consistency():
    def body():
        for code in _census_codes():
            orbit_list = orbits(code)
            chars = characters(code, orbit_list)
            assert len(chars) == len(code.words)
            assert sum(chi.trivial for chi in chars) == 1
            for chi in chars:
                assert count_twisted(code, chi, orbit_list) >= 1, (
                    code.generators,
                    chi,
                )
            total = sum(orbit.size for orbit in orbit_list)
            assert total == irr_count(code.k) ** code.ell

            for orbit in orbit_list:
                rep = orbit.representative
                brute = tuple(
                    xi for xi in code.words if fuse(xi, rep) == rep
                )
                assert set(brute) == set(orbit.stabilizer)
                report = induced_decomposition(orbit)
                if len(brute) == 1:
                    assert report.regime is Regime.FREE
                    assert report.num_irreducibles == 1
                    assert report.multiplicity == 1
                elif code.k % 4 == 0:
                    assert report.regime is Regime.FIXED_K0MOD4
                    assert report.num_irreducibles == len(brute)
                else:
                    assert code.k % 4 == 2
                    assert report.regime is Regime.FIXED_K2MOD4

    _gate(5, "counting consistency", 120.0, body)


def test_criterion_6_monodromy_laws():
    def body():
        # one-factor monodromy against the defining weight difference
        for k in range(2, 7):
            for x in pf_all_labels(k):
                for p in range(k):
                    drift = (
                        pf_weight(k, x.i, x.j + p)
                        - sc_weight(k, p)
                        - pf_weight(k, x.i, x.j)
                    )
                    assert pf_b(p, x) == drift % 1

        for k in range(2, 7):
            for ell in (1, 2):
                labels = all_irr_labels(k, ell)
                words = list(product(range(k), repeat=ell))
                index = {x: n for n, x in enumerate(labels)}

                # definition as a weight difference, exhaustively
                for xi in words:
                    for x in labels:
                        drift = (
                            tensor_weight(fuse(xi, x))
                            - sc_ext_weight(k, xi)
                            - tensor_weight(x)
                        )
                        assert b_ext(xi, x) == drift % 1, (k, xi, x)

                # current against current: the inner-product closed form
                for xi in words:
                    for eta in words:
                        assert b_ext(xi, _current_label(k, eta)) == Fraction(
                            (-2 * inner(xi, eta, k)) % k, k
                        )

                # biadditivity, via cached values
                table = [[b_ext(xi, x) for x in labels] for xi in words]
                word_index = {w: n for n, w in enumerate(words)}
                fused = [
                    [index[fuse(xi, x)] for x in labels] for xi in words
                ]
                current = [index[_current_label(k, w)] for w in words]
                for a, xi in enumerate(words):
                    row_a = table[a]
                    for b, eta in enumerate(words):
                        s = word_index[
                            tuple((p + q) % k for p, q in zip(xi, eta))
                        ]
                        row_s, row_b = table[s], table[b]
                        fuse_b = fused[b]
                        cur_b = row_a[current[b]]
                        for n in range(len(labels)):
                            assert row_s[n] == (row_a[n] + row_b[n]) % 1
                            assert row_a[fuse_b[n]] == (cur_b + row_a[n]) % 1

        # vanishing on code pairs
        for code in _census_codes():
            for xi in code.words:
                for eta in code.words:
                    assert b_ext(xi, _current_label(code.k, eta)) == 0

    _gate(6, "monodromy laws", 60.0, body)


def test_criterion_7_realization_cross_checks():
    def body():
        for code in _census_codes():
            for x in all_irr_labels(code.k, code.ell):
                _, member = realize(x, code)
                assert member == character_of(x, code).trivial, (
                    code.generators,
                    x,
                )

        for k in range(2, 7):
            for x in pf_all_labels(k):
                for d in (0, 1):
                    if k % 2 == 0 and (x.i - d) % 2:
                        with pytest.raises(InvalidInputError):
                            locate_pf(x, d)
                        continue
                    eta = locate_pf(x, d)
                    tail_pf = {pf for _, pf in branch_tail(k, eta, d)}
                    assert x in tail_pf, (x, d, eta)

    _gate(7, "realization", 60.0, body)


def test_criterion_8_half_period_suite():
    def body():
        half = Fraction(1, 2)
        found = 0
        for k in (2, 6, 10):
            for ell in (1, 2):
                for code in _subgroup_codes(k, ell):
                    if code.case is not Case.B:
                        continue
                    found += 1
                    even = even_part_code(code)
                    assert 2 * len(even.words) == len(code.words)
                    evens = set(even.words)
                    for w in code.words:
                        h = sc_ext_weight(k, w)
                        if w in evens:
                            assert h.denominator == 1, (code.generators, w)
                        else:
                            assert (h - half).denominator == 1, (
                                code.generators,
                                w,
                            )

                    for record in caseB_modules(code):
                        assert record.verdict in (
                            Verdict.FUSED,
                            Verdict.SPLIT,
                            Verdict.INDETERMINATE,
                        )
                        if record.verdict is Verdict.FUSED:
                            first, second = record.pair
                            orb = {fuse(w, first) for w in even.words}
                            assert second not in orb, (code.generators, record.pair)
        assert found, "no half-period codes were exercised"

    _gate(8, "half-period codes", 30.0, body)
