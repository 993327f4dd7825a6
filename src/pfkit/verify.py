"""Cross-check suites behind the `verify` analysis.

Each suite recomputes a family of results by an independent method and
reports pass/fail with the first counterexample.  Suites are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .cosets import (
    ProductCoset,
    all_labels,
    build_code_lattice,
    coset_add,
    coset_neg,
    coset_of_vector,
    fundamental_vector,
    identity_label,
    min_norm_data,
    min_norm_oracle,
    pairing,
    representative,
)
from .errors import VerificationError
from .modules import (
    IrrLabel,
    all_irr_labels,
    b_ext,
    character_of,
    even_part_code,
    fuse,
    realize,
    tensor_weight,
)
from .parafermion import all_labels as pf_all_labels
from .parafermion import pf_b
from .parafermion import pf_weight, sc_fuse, sc_weight, vacuum
from .zkcodes import Case, Code, word_add


@dataclass(frozen=True)
class VerifyResult:
    name: str
    passed: bool
    detail: str | None = None


def verify_minimal_norms(k: int) -> VerifyResult:
    """Closed-form minimal norms and counts vs exhaustive search, every
    canonical coset.  The search depends only on (j, weight), so it runs
    once per pair; a seeded sample of 64 labels must reproduce the memo."""
    labels = all_labels(k)
    memo = {}
    for lab in labels:
        key = (lab.j, lab.weight)
        if key not in memo:
            memo[key] = min_norm_oracle(lab)
        closed = min_norm_data(k, lab.j, lab.bits)
        if closed != memo[key]:
            return VerifyResult(
                "minimal_norms",
                False,
                f"label ({lab.j}, {lab.bits}): closed form {closed}, search {memo[key]}",
            )
    for lab in random.Random(k).sample(labels, min(64, len(labels))):
        searched = min_norm_oracle(lab)
        if searched != memo[(lab.j, lab.weight)]:
            return VerifyResult(
                "minimal_norms",
                False,
                f"label ({lab.j}, {lab.bits}): search {searched} differs from its (j, weight) memo",
            )
    return VerifyResult("minimal_norms", True)


def verify_group_laws(k: int) -> VerifyResult:
    """Identity, inverses via the vector oracle, commutativity (all pairs
    for rank <= 6, seeded sample otherwise), seeded associativity, and the
    generator decomposition exhibiting invariant factors (2, ..., 2, 2k)."""
    labels = all_labels(k)
    e = identity_label(k)
    for x in labels:
        if coset_add(x, e) != x:
            return VerifyResult("coset_group_laws", False, f"identity fails at {x}")
        if coset_of_vector(-representative(x)) != coset_neg(x):
            return VerifyResult(
                "coset_group_laws", False, f"inverse oracle fails at {x}"
            )
        if coset_add(x, coset_neg(x)) != e:
            return VerifyResult("coset_group_laws", False, f"inverse fails at {x}")
    rng = random.Random(20240 + k)
    if k <= 6:
        pairs = [(x, y) for x in labels for y in labels]
    else:
        pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(2000)]
    for x, y in pairs:
        if coset_add(x, y) != coset_add(y, x):
            return VerifyResult(
                "coset_group_laws", False, f"commutativity fails at {x}, {y}"
            )
    for _ in range(2000):
        x, y, z = (rng.choice(labels) for _ in range(3))
        if coset_add(coset_add(x, y), z) != coset_add(x, coset_add(y, z)):
            return VerifyResult(
                "coset_group_laws", False, f"associativity fails at {x}, {y}, {z}"
            )
    detail = _check_invariant_factors(k)
    if detail is not None:
        return VerifyResult("coset_group_laws", False, detail)
    return VerifyResult("coset_group_laws", True)


def _check_invariant_factors(k: int) -> str | None:
    """Fold explicit generators of orders (2, ..., 2, 2k) and check that
    their combinations enumerate the whole group bijectively."""
    last = fundamental_vector(k, k)
    gens = [
        coset_of_vector(fundamental_vector(k, p) - last) for p in range(2, k)
    ]
    g_last = coset_of_vector(last)
    e = identity_label(k)
    for g in gens:
        if coset_add(g, g) != e or g == e:
            return f"generator {g} does not have order 2"
    power = g_last
    order = 1
    while power != e:
        power = coset_add(power, g_last)
        order += 1
        if order > 2 * k:
            return "cyclic generator order exceeds 2k"
    if order != 2 * k:
        return f"cyclic generator has order {order}, expected {2 * k}"
    combos = {e}
    cursor = e
    for _ in range(2 * k - 1):
        cursor = coset_add(cursor, g_last)
        combos.add(cursor)
    for g in gens:
        combos |= {coset_add(x, g) for x in combos}
    if len(combos) != len(all_labels(k)):
        return (
            f"generators span {len(combos)} of {len(all_labels(k))} labels"
        )
    return None


def verify_pairing_forms(k: int) -> VerifyResult:
    """Representative-based pairing vs the closed forms: pure x pure is
    -2 p q / k, pure x tail is p (d - 2 eta) / k, both mod 1."""
    for p in range(k):
        pure_p = ProductCoset.from_word(k, (p,))
        for q in range(k):
            got = pairing(pure_p, ProductCoset.from_word(k, (q,)))
            want = Fraction((-2 * p * q) % k, k)
            if got != want:
                return VerifyResult(
                    "pairing_forms", False, f"pure {p} x pure {q}: {got} != {want}"
                )
        for eta in range(k):
            for d in (0, 1):
                got = pairing(pure_p, ProductCoset.from_tail(k, (eta,), (d,)))
                want = Fraction((p * (d - 2 * eta)) % k, k)
                if got != want:
                    return VerifyResult(
                        "pairing_forms",
                        False,
                        f"pure {p} x tail ({eta},{d}): {got} != {want}",
                    )
    return VerifyResult("pairing_forms", True)


def verify_monodromy_laws(k: int) -> VerifyResult:
    """Closed-form monodromy vs the weight bookkeeping
    h(fusion) - h(current) - h(x) mod 1, plus additivity in the current."""
    labels = pf_all_labels(k)
    for p in range(k):
        hp = sc_weight(k, p)
        for x in labels:
            lhs = pf_b(p, x)
            fused = sc_fuse(p, x)
            diff = pf_weight(k, fused.i, fused.j) - hp - pf_weight(k, x.i, x.j)
            if (lhs - diff) % 1 != 0:
                return VerifyResult(
                    "monodromy_laws", False, f"current {p} vs {x}: {lhs} != {diff}"
                )
    for p in range(k):
        for q in range(k):
            for x in labels:
                lhs = pf_b((p + q) % k, x)
                rhs = (pf_b(p, x) + pf_b(q, x)) % 1
                if lhs != rhs:
                    return VerifyResult(
                        "monodromy_laws",
                        False,
                        f"additivity fails at {p}, {q}, {x}",
                    )
    return VerifyResult("monodromy_laws", True)


def verify_realization(code: Code, cap: int) -> VerifyResult:
    """Dual membership of the realization coset must equal character
    triviality, for every label."""
    basis = even_part_code(code) if code.case is Case.B else code
    for x in all_irr_labels(basis.k, basis.ell, cap):
        coset, member = realize(x, basis)
        trivial = character_of(x, basis).trivial
        if member != trivial:
            return VerifyResult(
                "realization_duality",
                False,
                f"label {x}: member={member}, trivial={trivial} ({coset})",
            )
    return VerifyResult("realization_duality", True)


def verify_extension_monodromy(code: Code, cap: int) -> VerifyResult:
    """Monodromy of codeword currents: weight bookkeeping, additivity, and
    vanishing on the code itself when the code is even."""
    k, ell = code.k, code.ell
    labels = all_irr_labels(k, ell, cap)
    for xi in code.words:
        h_xi = sum(sc_weight(k, p) for p in xi)
        for x in labels:
            got = b_ext(xi, x)
            diff = tensor_weight(fuse(xi, x)) - h_xi - tensor_weight(x)
            if (got - diff) % 1 != 0:
                return VerifyResult(
                    "extension_monodromy",
                    False,
                    f"word {xi} vs {x}: {got} vs {diff}",
                )
        for eta in code.words:
            merged = word_add(xi, eta, k)
            for x in labels[:: max(1, len(labels) // 64)]:
                if b_ext(merged, x) != (b_ext(xi, x) + b_ext(eta, x)) % 1:
                    return VerifyResult(
                        "extension_monodromy",
                        False,
                        f"additivity fails at {xi}, {eta}, {x}",
                    )
    if code.case is Case.A:
        for xi in code.words:
            for eta in code.words:
                x = fuse(eta, IrrLabel(k, (vacuum(k),) * ell))
                if b_ext(xi, x) != 0:
                    return VerifyResult(
                        "extension_monodromy",
                        False,
                        f"nonzero monodromy {xi} against code current {eta}",
                    )
    return VerifyResult("extension_monodromy", True)


def verify_lattice_discriminant(code: Code) -> VerifyResult:
    """Index-formula discriminant vs the Smith-form computation."""
    try:
        lat = build_code_lattice(code, verify=True)
    except VerificationError as err:
        return VerifyResult("lattice_discriminant", False, str(err))
    return VerifyResult(
        "lattice_discriminant",
        True,
        f"order {lat.discriminant_order}, factors {list(lat.invariant_factors or ())}",
    )


def run_suites(code: Code, orbit_cap: int) -> tuple[VerifyResult, ...]:
    """The full battery for one job, in fixed order."""
    k = code.k
    out = [
        verify_minimal_norms(k),
        verify_group_laws(k),
        verify_pairing_forms(k),
        verify_monodromy_laws(k),
    ]
    if code.case is not Case.UNSUPPORTED:
        out.append(verify_lattice_discriminant(code))
        out.append(verify_realization(code, orbit_cap))
        out.append(verify_extension_monodromy(code, orbit_cap))
    return tuple(out)
