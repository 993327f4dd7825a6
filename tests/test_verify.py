"""Fault injection into the verify suites.

The realization and extension-monodromy suites check every label through
the level's integer label table and run a seeded sample of labels through
the public per-label functions.  A corrupted table entry must fail the
suite at a named label, a corrupted public function must be caught by the
sample, and the label-space cap must trip before any table is built.  The
group-law suite runs its inverse oracle on 2k-scaled integers and its pair
laws on packed labels; a corrupted group law (public or packed), scaled
representative or public `coset_of_vector` must fail it with the check's
message.  A corrupted closed form fails the minimal-norm, pairing-form and
monodromy-law suites under their own names.
"""

import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import pfkit.cosets
import pfkit.modules
import pfkit.verify
from pfkit import (
    CapExceededError,
    IrrLabel,
    ProductCoset,
    build_code_lattice,
    canonicalize,
    coset_neg,
    identity_label,
    pf_canonicalize,
    span,
)
from pfkit.cli import main
from pfkit.cosets import _pack, _residue_table, _unpack, all_labels, representative
from pfkit.modules import label_table
from pfkit.verify import (
    VerifyResult,
    _pairing_numerators,
    run_suites,
    verify_extension_monodromy,
    verify_group_laws,
    verify_minimal_norms,
    verify_monodromy_laws,
    verify_pairing_forms,
    verify_realization,
)

CAP = 10**7
SUITES = [verify_realization, verify_extension_monodromy]


def label(k, *pairs):
    return IrrLabel(k, tuple(pf_canonicalize(k, i, j) for i, j in pairs))


@pytest.fixture(autouse=True)
def cold_tables():
    caches = (label_table, _pairing_numerators, _residue_table, representative)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def code44():
    return span([(2, 2, 0, 0), (0, 0, 2, 2)], 4, 4)


@pytest.mark.parametrize(
    "code, lattice",
    [
        (span([(2, 2, 0, 0), (0, 0, 2, 2)], 4, 4), ("even", 65536, (2,) * 8 + (4,) * 4)),
        # Case B: realization runs on the even part
        (span([(1, 1, 1)], 6, 3), ("odd", 196608, (2,) * 12 + (4, 12))),
        (span([(1, 2)], 5, 2), ("even", 256, (2,) * 8)),
        (span([], 3, 2), ("even", 144, (2, 2, 6, 6))),
    ],
    ids=["k4-caseA", "k6-caseB", "k5-caseA", "k3-zero-code"],
)
@pytest.mark.parametrize("suite", SUITES, ids=lambda fn: fn.__name__)
def test_suites_pass_on_supported_codes(code, lattice, suite):
    assert suite(code, CAP).passed
    # parity, discriminant order and invariant factors, as the Fraction
    # representatives gave them before the scaled-integer path
    lat = build_code_lattice(code, verify=True)
    assert (lat.parity, lat.discriminant_order, lat.invariant_factors) == lattice


def test_corrupted_pairing_slot_fails_realization(code44, monkeypatch):
    table = label_table(4)
    assert table.tail[table.labels.index(pf_canonicalize(4, 3, 0))] == (1, 1)
    pure, tail = ProductCoset.from_word(4, (2,)), ProductCoset.from_tail(4, (1,), (1,))
    original = pfkit.verify.pairing

    def corrupted(x, y):
        shift = Fraction(1, 4) if (x, y) == (pure, tail) else 0
        return (original(x, y) + shift) % 1

    monkeypatch.setattr(pfkit.verify, "pairing", corrupted)
    result = verify_realization(code44, CAP)
    assert not result.passed
    first = label(4, (1, 0), (1, 0), (1, 0), (3, 0))
    assert result.detail.startswith(f"label {first}: member=False, trivial=True (")


def test_corrupted_weight_fails_extension_monodromy(code44, monkeypatch):
    original = pfkit.modules.pf_weight

    def corrupted(k, i, j):
        shift = Fraction(1, 2 * k * (k + 2)) if (i, j % k) == (3, 1) else 0
        return original(k, i, j) + shift

    monkeypatch.setattr(pfkit.modules, "pf_weight", corrupted)
    result = verify_extension_monodromy(code44, CAP)
    assert not result.passed
    # (0,0,2,2) fuses the last factor (1,0) into (3,1), the corrupted one
    first = label(4, (1, 0), (1, 0), (1, 0), (1, 0))
    assert result.detail == f"word (0, 0, 2, 2) vs {first}: 0 vs -23/24"


@pytest.mark.parametrize("suite", SUITES, ids=lambda fn: fn.__name__)
def test_corrupted_t_entry_fails_both_suites(code44, suite, monkeypatch):
    table = label_table(4)
    a = table.labels.index(pf_canonicalize(4, 2, 0))
    bad = replace(table, t=table.t[:a] + ((table.t[a] + 1) % 4,) + table.t[a + 1 :])
    monkeypatch.setattr(pfkit.verify, "label_table", lambda k: bad)
    result = suite(code44, CAP)
    assert not result.passed
    assert "(2,0)" in result.detail


def test_sample_catches_a_public_realize_flip(code44, monkeypatch):
    original = pfkit.verify.realize

    def flipped(x, code):
        coset, member = original(x, code)
        return coset, not member

    monkeypatch.setattr(pfkit.verify, "realize", flipped)
    result = verify_realization(code44, CAP)
    assert not result.passed
    assert "realize/character_of give" in result.detail


def test_sample_catches_a_public_weight_shift(code44, monkeypatch):
    original = pfkit.verify.tensor_weight
    monkeypatch.setattr(pfkit.verify, "tensor_weight", lambda x: original(x) + 1)
    result = verify_extension_monodromy(code44, CAP)
    assert not result.passed
    assert "tensor_weight gives" in result.detail


@pytest.mark.parametrize("suite", SUITES, ids=lambda fn: fn.__name__)
def test_cap_trips_before_any_table(code44, suite):
    with pytest.raises(
        CapExceededError, match="label space of size 10000 exceeds the cap of 9999"
    ):
        suite(code44, 9999)
    assert label_table.cache_info().misses == 0
    assert _pairing_numerators.cache_info().misses == 0


@pytest.mark.parametrize("suite", SUITES, ids=lambda fn: fn.__name__)
def test_label_count_past_the_sample_range_trips_the_cap(suite):
    # 3^45 labels: random.sample draws from a range of at most sys.maxsize
    with pytest.raises(
        CapExceededError,
        match=f"label space of size {3**45} exceeds the cap of {sys.maxsize}$",
    ):
        suite(span([], 2, 45), 10**200)
    assert label_table.cache_info().misses == 0


def test_label_count_past_the_sample_range_exits_four(capsys):
    argv = ["--k", "2", "--ell", "45", "--analysis", "verify"]
    assert main([*argv, "--orbit-cap", str(10**200)]) == 4
    assert f"exceeds the cap of {sys.maxsize}" in capsys.readouterr().err


def test_the_largest_label_space_under_the_caps_verifies(capsys):
    # 3^39 labels is the most sys.maxsize admits at k = 2, so the
    # realization fold recurses at most 40 deep
    argv = ["--k", "2", "--ell", "39", "--gen", "1,1" + ",0" * 37, "--analysis", "verify"]
    assert main([*argv, "--orbit-cap", str(10**20)]) == 0
    out = capsys.readouterr().out
    assert out.count(": pass") == 7 and "FAIL" not in out


def test_run_suites_order():
    results = run_suites(span([(1, 2)], 5, 2), CAP)
    assert [r.name for r in results] == [
        "minimal_norms",
        "coset_group_laws",
        "pairing_forms",
        "monodromy_laws",
        "lattice_discriminant",
        "realization_duality",
        "extension_monodromy",
    ]
    assert all(r.passed for r in results)


@pytest.mark.parametrize(
    "suite, value, fault, name, detail",
    [
        # every closed form is off the searched norm
        (
            verify_minimal_norms,
            "min_norm_data",
            lambda v: (v[0] + 1, v[1]),
            "minimal_norms",
            "label (0, (0, 0, 0, 1)): closed form (Fraction(11, 8), 1), "
            "search (Fraction(3, 8), 1)",
        ),
        # a pairing outside [0, 1) never equals its closed form
        (
            verify_pairing_forms,
            "pairing",
            lambda v: v + 1,
            "pairing_forms",
            "pure 0 x pure 0: 1 != 0",
        ),
        # half a unit off the weight bookkeeping
        (
            verify_monodromy_laws,
            "pf_b",
            lambda v: v + Fraction(1, 2),
            "monodromy_laws",
            "current 0 vs (1,0): 1/2 != 0",
        ),
    ],
    ids=["minimal_norms", "pairing_forms", "monodromy_laws"],
)
def test_corrupted_closed_form_fails_its_suite(monkeypatch, suite, value, fault, name, detail):
    original = getattr(pfkit.verify, value)
    monkeypatch.setattr(pfkit.verify, value, lambda *args: fault(original(*args)))
    assert suite(4) == VerifyResult(name, False, detail)


def test_corrupted_neg_fails_inverse_oracle(monkeypatch):
    monkeypatch.setattr(pfkit.verify, "coset_neg", lambda x: x)
    result = verify_group_laws(4)
    assert not result.passed
    assert result.detail == "inverse oracle fails at 0:0001"


@pytest.mark.parametrize(
    "warm, detail",
    [
        (False, "representative residues collided"),
        (True, "inverse oracle fails at 0:1000"),
    ],
    ids=["cold-table", "warm-table"],
)
def test_corrupted_scaled_entry_fails_group_laws(monkeypatch, warm, detail):
    bad = canonicalize(4, 0, (1, 0, 0, 0))
    original = pfkit.cosets._scaled

    def corrupted(x):
        return original(coset_neg(x) if x == bad else x)

    if warm:
        _residue_table(4)
    for module in (pfkit.cosets, pfkit.verify):
        monkeypatch.setattr(module, "_scaled", corrupted)
    result = verify_group_laws(4)
    assert not result.passed
    assert result.detail == detail


@pytest.mark.parametrize(
    "law, detail",
    [
        ("identity", "identity fails at 0:0001"),
        ("commutativity", "commutativity fails at 0:0001, 0:0010"),
    ],
)
def test_corrupted_coset_add_fails_group_laws(monkeypatch, law, detail):
    e = identity_label(4)
    a, b = canonicalize(4, 0, (0, 0, 0, 1)), canonicalize(4, 0, (0, 0, 1, 0))
    if law == "identity":
        # identity runs through the public coset_add
        original = pfkit.verify.coset_add

        def corrupted(x, y):
            return coset_neg(original(x, y)) if y == e else original(x, y)

        monkeypatch.setattr(pfkit.verify, "coset_add", corrupted)
    else:
        # commutativity runs on packed labels, through the kernel
        original = pfkit.cosets._add_packed
        point = (4, _pack(b), _pack(a))

        def corrupted(k, x, y):
            value = original(k, x, y)
            return _pack(coset_neg(_unpack(k, value))) if (k, x, y) == point else value

        for module in (pfkit.cosets, pfkit.verify):
            monkeypatch.setattr(module, "_add_packed", corrupted)
    result = verify_group_laws(4)
    assert not result.passed
    assert result.detail == detail


def test_sample_catches_a_public_coset_add_fault(monkeypatch):
    # wrong off the identity and inverse checks: only the pair sample, which
    # compares coset_add with the packed law, can see it
    original = pfkit.verify.coset_add

    def corrupted(x, y):
        value = original(x, y)
        if y == identity_label(x.k) or y == coset_neg(x):
            return value
        labels = all_labels(x.k)
        return labels[(labels.index(value) + 1) % len(labels)]

    monkeypatch.setattr(pfkit.verify, "coset_add", corrupted)
    result = verify_group_laws(5)
    assert not result.passed
    assert result.detail.startswith("public coset_add fails at ")


def test_sample_catches_a_public_coset_of_vector_flip(monkeypatch):
    original = pfkit.verify.coset_of_vector
    monkeypatch.setattr(
        pfkit.verify, "coset_of_vector", lambda v: coset_neg(original(v))
    )
    result = verify_group_laws(5)
    assert not result.passed
    assert result.detail.startswith("public inverse oracle fails at ")
