"""The verify suites and the Case B pairing against the loops they replaced.

The group-law, monodromy-law and extension-monodromy suites evaluate each
public value once per argument, outside their seeded samples.  The
reference loops below evaluate the public functions once per comparison
instead; the group-law reference adds through the public `coset_add`
where the suite adds packed labels.  Under seeded single-point
fault injection (one wrong value, or one raise, at one argument, of a
public function or of the packed group law) each
suite must give the same `VerifyResult` as its reference, or raise the
same error.  The realization suite folds per slot; its reference walks
every label, under single-entry faults in either route.  Call counts pin
the evaluations saved.  `caseB_modules` finds mates on index tuples and
skips the orbits already emitted as mates; the reference fuses every member
of every trivial orbit as labels and compares.  The Smith form of the
discriminant oracle alternates row Hermite forms; its reference eliminates
pivot by pivot, on rows and columns at once.
"""

import hashlib
import random
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pfkit.cosets
import pfkit.modules
import pfkit.verify as V
from pfkit.cli import main
from pfkit.cosets import _smith_diagonal, build_code_lattice
from pfkit.errors import (
    InvalidInputError,
    PfkitError,
    VerificationError,
    check_numerator,
)
from pfkit.modules import (
    CaseBRecord,
    IrrLabel,
    Verdict,
    caseB_modules,
    even_part_code,
    induced_decomposition,
    orbits,
)
from pfkit.parafermion import vacuum
from pfkit.report import JobSpec, run
from pfkit.verify import (
    VerifyResult,
    verify_extension_monodromy,
    verify_group_laws,
    verify_monodromy_laws,
    verify_realization,
)
from pfkit.zkcodes import Case, inner, span, word_add

CAP = 10**7


def ordered_pair_group_laws(k):
    """`verify_group_laws` with commutativity on every ordered pair of
    labels through the public `coset_add`, and `coset_neg` called per use."""
    labels = V.all_labels(k)
    try:
        detail = _ordered_pair_failure(k, labels)
    except (InvalidInputError, VerificationError) as err:
        detail = str(err)
    return VerifyResult("coset_group_laws", detail is None, detail)


def _ordered_pair_failure(k, labels):
    e = V.identity_label(k)
    for x in labels:
        if V.coset_add(x, e) != x:
            return f"identity fails at {x}"
        if V._coset_of_scaled(k, [-c for c in V._scaled(x)]) != V.coset_neg(x):
            return f"inverse oracle fails at {x}"
        if V.coset_add(x, V.coset_neg(x)) != e:
            return f"inverse fails at {x}"
    sample = random.Random(k).sample(labels, min(64, len(labels)))
    for x, y in zip(sample, sample[1:] + sample[:1]):
        if V.coset_of_vector(-V.representative(x)) != V.coset_neg(x):
            return f"public inverse oracle fails at {x}"
        if V.coset_add(x, y) != V._unpack(k, V._add_packed(k, V._pack(x), V._pack(y))):
            return f"public coset_add fails at {x}, {y}"
    rng = random.Random(20240 + k)
    if k <= 6:
        pairs = [(x, y) for x in labels for y in labels]
    else:
        pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(2000)]
    for x, y in pairs:
        if V.coset_add(x, y) != V.coset_add(y, x):
            return f"commutativity fails at {x}, {y}"
    for _ in range(2000):
        x, y, z = (rng.choice(labels) for _ in range(3))
        if V.coset_add(V.coset_add(x, y), z) != V.coset_add(x, V.coset_add(y, z)):
            return f"associativity fails at {x}, {y}, {z}"
    return V._check_invariant_factors(k, [V._pack(x) for x in labels])


def realization_by_walk(code, cap):
    """`verify_realization` deciding every label by walking the index tuples
    in lexicographic order, instead of folding per slot."""
    basis = even_part_code(code) if code.case is Case.B else code
    k, ell = basis.k, basis.ell
    total = V.label_space_size(k, ell, cap)
    table = V.label_table(k)
    steps = V._realization_steps(basis)
    rank = len(basis.generators)

    def routes(index):
        lattice = [sum(steps[s][a][g] for s, a in enumerate(index)) % k for g in range(rank)]
        code_side = [sum(steps[s][a][rank + g] for s, a in enumerate(index)) % k for g in range(rank)]
        return not any(lattice), not any(code_side)

    for index in product(range(len(table.labels)), repeat=ell):
        member, trivial = routes(index)
        if member != trivial:
            eta, delta = zip(*(table.tail[a] for a in index))
            coset = V.ProductCoset.from_tail(k, eta, delta)
            return VerifyResult(
                "realization_duality",
                False,
                f"label {table.label(index)}: member={member}, trivial={trivial} ({coset})",
            )
    for index in V._sample(k, len(table.labels), ell, total):
        x = table.label(index)
        public = (V.realize(x, basis)[1], V.character_of(x, basis).trivial)
        if public != routes(index):
            return VerifyResult(
                "realization_duality",
                False,
                f"label {x}: realize/character_of give member, trivial = "
                f"{public}; the table gives {routes(index)}",
            )
    return VerifyResult("realization_duality", True)


def per_call_monodromy_laws(k):
    """`verify_monodromy_laws` with `pf_b` called per comparison."""
    labels = V.pf_all_labels(k)
    for p in range(k):
        hp = V.sc_weight(k, p)
        for x in labels:
            lhs = V.pf_b(p, x)
            fused = V.sc_fuse(p, x)
            diff = V.pf_weight(k, fused.i, fused.j) - hp - V.pf_weight(k, x.i, x.j)
            if (lhs - diff) % 1 != 0:
                return VerifyResult(
                    "monodromy_laws", False, f"current {p} vs {x}: {lhs} != {diff}"
                )
    for p in range(k):
        for q in range(k):
            for x in labels:
                lhs = V.pf_b((p + q) % k, x)
                rhs = (V.pf_b(p, x) + V.pf_b(q, x)) % 1
                if lhs != rhs:
                    return VerifyResult(
                        "monodromy_laws", False, f"additivity fails at {p}, {q}, {x}"
                    )
    return VerifyResult("monodromy_laws", True)


def per_call_extension_monodromy(code, cap):
    """`verify_extension_monodromy` with `b_ext` called three times per
    additivity comparison and each code current rebuilt per use."""
    k, ell = code.k, code.ell
    total = V.label_space_size(k, ell, cap)
    table = V.label_table(k)
    n, den, t, w = len(table.labels), table.weight_den, table.t, table.weight
    spread = [V._digits(i, n, ell) for i in range(0, total, max(1, total // 64))]
    for xi in code.words:
        rows = V._monodromy_rows(k, xi)
        index = V._first_failing([[(v,) for v in row] for row in rows], den)
        if index is not None:
            got = Fraction(sum(p * t[a] for p, a in zip(xi, index)) % k, k)
            diff = Fraction(
                sum(w[table.fuse[p][a]] - w[a] for p, a in zip(xi, index)), den
            ) - sum(V.sc_weight(k, p) for p in xi)
            return VerifyResult(
                "extension_monodromy",
                False,
                f"word {xi} vs {table.label(index)}: {got} vs {diff}",
            )
        for eta in code.words:
            merged = word_add(xi, eta, k)
            for x in map(table.label, spread):
                if V.b_ext(merged, x) != (V.b_ext(xi, x) + V.b_ext(eta, x)) % 1:
                    return VerifyResult(
                        "extension_monodromy",
                        False,
                        f"additivity fails at {xi}, {eta}, {x}",
                    )
    for index in V._sample(k, n, ell, total):
        x = table.label(index)
        weight = Fraction(sum(w[a] for a in index), den)
        if V.tensor_weight(x) != weight:
            return VerifyResult(
                "extension_monodromy",
                False,
                f"label {x}: tensor_weight gives {V.tensor_weight(x)}, the table {weight}",
            )
        for xi in code.words:
            fused = table.label(tuple(table.fuse[p][a] for p, a in zip(xi, index)))
            monodromy = Fraction(sum(p * t[a] for p, a in zip(xi, index)) % k, k)
            if V.fuse(xi, x) != fused or V.b_ext(xi, x) != monodromy:
                return VerifyResult(
                    "extension_monodromy",
                    False,
                    f"word {xi} vs {x}: fuse/b_ext give {V.fuse(xi, x)}, "
                    f"{V.b_ext(xi, x)}; the table {fused}, {monodromy}",
                )
    if code.case is Case.A:
        for xi in code.words:
            for eta in code.words:
                x = V.fuse(eta, IrrLabel(k, (vacuum(k),) * ell))
                if V.b_ext(xi, x) != 0:
                    return VerifyResult(
                        "extension_monodromy",
                        False,
                        f"nonzero monodromy {xi} against code current {eta}",
                    )
    return VerifyResult("extension_monodromy", True)


def caseB_by_member_fusion(code):
    """`caseB_modules` fusing every member of every trivial-character orbit
    with the odd representative, and skipping the orbits whose mate sorts
    first."""
    even = even_part_code(code)
    odd_rep = min(code.odd_part)
    out = []
    for orb in orbits(even):
        if not orb.character.trivial:
            continue
        mate = min(pfkit.modules.fuse(odd_rep, y) for y in orb.members)
        if mate < orb.representative:
            continue
        if mate != orb.representative:
            verdict = Verdict.FUSED
        elif len(orb.stabilizer) == 1:
            verdict = Verdict.SPLIT
        else:
            verdict = Verdict.INDETERMINATE
        out.append(
            CaseBRecord(
                (orb.representative, mate), induced_decomposition(orb, even), verdict
            )
        )
    return tuple(out)


def outcome(suite, *args):
    """The suite's result, or the type and message of the error it raised."""
    try:
        return suite(*args)
    except PfkitError as err:
        return type(err), str(err)


def half_turn(value, args):
    return (value + Fraction(1, 2)) % 1


def off_by_one(value, args):
    # the same value mod 1: only the comparisons that skip `% 1` see it
    return value + 1


def raising(value, args):
    raise VerificationError(f"injected at {args}")


def inject(monkeypatch, name, point, fault, modules=(V,)):
    """Patch `<name>` in each of `modules` so that the call with arguments
    `point` returns `fault(value, point)`, which may raise; every other call
    is untouched.  A `point` ending in None matches any last argument."""
    original = getattr(modules[0], name)

    def faulty(*args):
        value = original(*args)
        hit = args == point or (point[-1] is None and args[:-1] == point[:-1])
        return fault(value, args) if hit else value

    for module in modules:
        monkeypatch.setattr(module, name, faulty)


def inject_kernel(monkeypatch, point, fault):
    """Fault the packed group law, in `cosets` (behind the public
    `coset_add`, `coset_neg` and `canonicalize`) and in the verify suite."""
    inject(monkeypatch, "_add_packed", point, fault, (pfkit.cosets, V))


def next_label(value, args):
    labels = V.all_labels(value.k)
    return labels[(labels.index(value) + 1) % len(labels)]


def next_packed(value, args):
    packed = [V._pack(x) for x in V.all_labels(args[0])]
    return packed[(packed.index(value) + 1) % len(packed)]


@pytest.mark.parametrize("fault", [next_packed, raising], ids=["wrong", "raise"])
@pytest.mark.parametrize("k, seed", [(k, s) for k in (3, 4, 5) for s in range(4)] + [(7, 0)])
def test_group_laws_match_ordered_pair_loop(monkeypatch, k, seed, fault):
    labels = V.all_labels(k)
    rng = random.Random(seed)
    point = (k, V._pack(rng.choice(labels)), V._pack(rng.choice(labels)))
    inject_kernel(monkeypatch, point, fault)
    got = outcome(verify_group_laws, k)
    assert got == outcome(ordered_pair_group_laws, k)
    if k <= 6 and point[1] != point[2]:
        assert not got.passed


@pytest.mark.parametrize("k", [3, 4, 5])
def test_group_laws_match_when_coset_neg_is_faulted(monkeypatch, k):
    labels = V.all_labels(k)
    for seed in range(3):
        point = (random.Random(seed).choice(labels),)
        for fault in (next_label, raising):
            with monkeypatch.context() as m:
                inject(m, "coset_neg", point, fault)
                got = outcome(verify_group_laws, k)
                assert got == outcome(ordered_pair_group_laws, k)
                assert not got.passed


FAULTS = [half_turn, off_by_one, raising]
FAULT_IDS = ["wrong", "off-by-one", "raise"]


@pytest.mark.parametrize("fault", FAULTS, ids=FAULT_IDS)
@pytest.mark.parametrize("k, seed", [(k, s) for k in (3, 4, 6) for s in range(3)])
def test_monodromy_laws_match_per_call_loop(monkeypatch, k, seed, fault):
    rng = random.Random(seed)
    point = (rng.randrange(k), rng.choice(V.pf_all_labels(k)))
    inject(monkeypatch, "pf_b", point, fault)
    got = outcome(verify_monodromy_laws, k)
    assert got == outcome(per_call_monodromy_laws, k)
    assert got != VerifyResult("monodromy_laws", True)


EXTENSION_CODES = [
    span([(1, 2)], 5, 2),
    span([(2, 2, 0), (0, 2, 2)], 4, 3),
    span([(1, 1, 1)], 6, 3),
    span([(3,)], 6, 1),
]


def fault_labels(code):
    """The labels the extension-monodromy suite passes to `b_ext`: its
    spread, its seeded sample and, on Case A codes, the code currents."""
    k, ell = code.k, code.ell
    table = V.label_table(k)
    n = len(table.labels)
    total = n**ell
    indices = [V._digits(i, n, ell) for i in range(0, total, max(1, total // 64))]
    out = [table.label(i) for i in indices + V._sample(k, n, ell, total)]
    if code.case is Case.A:
        out += [V.fuse(eta, IrrLabel(k, (vacuum(k),) * ell)) for eta in code.words]
    return out


@pytest.mark.parametrize("fault", FAULTS, ids=FAULT_IDS)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "code", EXTENSION_CODES, ids=["k5-caseA", "k4-caseA", "k6-caseB", "k6-ell1-caseB"]
)
def test_extension_monodromy_matches_per_call_loop(monkeypatch, code, seed, fault):
    rng = random.Random(seed)
    point = (rng.choice(code.words), rng.choice(fault_labels(code)))
    inject(monkeypatch, "b_ext", point, fault)
    assert outcome(verify_extension_monodromy, code, CAP) == outcome(
        per_call_extension_monodromy, code, CAP
    )


@pytest.mark.parametrize("fault", FAULTS[:2], ids=FAULT_IDS[:2])
def test_row_faults_give_the_same_first_failure(monkeypatch, fault):
    # one wrong current or codeword fails many comparisons; the first one
    # reported depends on the order of the walk
    for k in (4, 5):
        with monkeypatch.context() as m:
            inject(m, "pf_b", (2, None), fault)
            assert outcome(verify_monodromy_laws, k) == outcome(per_call_monodromy_laws, k)
    for code in EXTENSION_CODES:
        with monkeypatch.context() as m:
            inject(m, "b_ext", (code.words[-1], None), fault)
            got = outcome(verify_extension_monodromy, code, CAP)
            assert got == outcome(per_call_extension_monodromy, code, CAP)
            assert not got.passed
    inject_kernel(monkeypatch, (4, V._pack(V.all_labels(4)[5]), None), next_packed)
    assert outcome(verify_group_laws, 4) == outcome(ordered_pair_group_laws, 4)


@pytest.mark.parametrize("code", EXTENSION_CODES, ids=lambda c: f"k{c.k}-ell{c.ell}")
def test_unfaulted_suites_match_references(code):
    assert verify_extension_monodromy(code, CAP) == per_call_extension_monodromy(
        code, CAP
    )
    assert verify_monodromy_laws(code.k) == per_call_monodromy_laws(code.k)


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "module, name, run, most",
    [
        # identity and inverse on 192 labels, and the 64 sampled pairs: the
        # pair laws run on packed labels
        (V, "coset_add", lambda: verify_group_laws(6), 448),
        # one k x n table of pf_b at k=10, against 3 calls per comparison
        (V, "pf_b", lambda: verify_monodromy_laws(10), 550),
        # 25 codewords x 65 spread labels, plus the sample and Case A check
        (
            V,
            "b_ext",
            lambda: verify_extension_monodromy(
                span([(1, 2, 0, 0), (0, 0, 1, 2)], 5, 4), CAP
            ),
            3_850,
        ),
        # mates are found on index tuples: no label is fused
        (
            pfkit.modules,
            "fuse",
            lambda: caseB_modules(span([(5, 0)], 10, 2)),
            0,
        ),
        # the sweep checks each stabilizer on the factor labels: no label
        (
            pfkit.modules.LabelTable,
            "label",
            lambda: orbits(span([(1, 2, 0, 0), (0, 0, 1, 2)], 5, 4)),
            0,
        ),
        # the census report builds one label per orbit, its representative's,
        # for 2,025 orbits
        (
            pfkit.modules.LabelTable,
            "label",
            lambda: run(JobSpec(5, 4, ((1, 2, 0, 0), (0, 0, 1, 2)), ("modules",))),
            2_025,
        ),
        # one decomposition per orbit of the even part, shared by the rows,
        # the counts and the Case B records
        (
            pfkit.modules,
            "induced_decomposition",
            lambda: run(JobSpec(10, 2, ((5, 0),), ("modules",))),
            3_025,
        ),
    ],
    ids=["coset_add", "pf_b", "b_ext", "fuse", "label", "label-report", "induced_decomposition"],
)
def test_each_value_is_evaluated_once(monkeypatch, module, name, run, most):
    calls = count_calls(monkeypatch, module, name)
    result = run()
    assert len(calls) <= most
    if isinstance(result, VerifyResult):
        assert result.passed


def shift_entry(steps, s, a, c, shift):
    """The steps with component c of slot s, factor a shifted."""
    steps = [list(row) for row in steps]
    entry = steps[s][a]
    steps[s][a] = entry[:c] + (entry[c] + shift,) + entry[c + 1 :]
    return steps


@st.composite
def realization_faults(draw):
    """A code with k <= 8, rank <= 2 and ell <= 4 whose label space the walk
    covers quickly, and a single-entry fault in the lattice or the code
    route (or none): (slot, factor, component, shift)."""
    k = draw(st.integers(2, 8))
    n = k * (k + 1) // 2
    ell = draw(st.integers(1, max(e for e in range(1, 5) if n**e <= 4096)))
    word = st.tuples(*[st.integers(0, k - 1)] * ell)
    code = span(draw(st.lists(word, max_size=2)), k, ell)
    basis = even_part_code(code) if code.case is Case.B else code
    if not basis.generators or draw(st.integers(0, 4)) == 4:
        return code, None
    return code, (
        draw(st.integers(0, ell - 1)),
        draw(st.integers(0, n - 1)),
        draw(st.integers(0, 2 * len(basis.generators) - 1)),
        draw(st.integers(1, k - 1)),
    )


@settings(max_examples=100, deadline=None)
@given(realization_faults())
def test_realization_fold_matches_walk(case):
    code, fault = case
    original = V._realization_steps

    def faulted(basis):
        return original(basis) if fault is None else shift_entry(original(basis), *fault)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(V, "_realization_steps", faulted)
        got = outcome(verify_realization, code, CAP)
        assert got == outcome(realization_by_walk, code, CAP)
    if fault is None and code.case is not Case.UNSUPPORTED:
        assert got.passed


@pytest.mark.parametrize("seed", range(20))
def test_realization_fold_matches_walk_on_fixed_faults(monkeypatch, seed):
    # seeded single-entry faults in either route of a code with two generators
    code = span([(2, 2, 0, 0), (0, 0, 2, 2)], 4, 4)
    rng = random.Random(seed)
    fault = (rng.randrange(4), rng.randrange(10), rng.randrange(4), rng.randrange(1, 4))
    faulted = shift_entry(V._realization_steps(code), *fault)
    monkeypatch.setattr(V, "_realization_steps", lambda basis: faulted)
    got = outcome(verify_realization, code, CAP)
    assert got == outcome(realization_by_walk, code, CAP)
    assert not got.passed


# stdout sha256 of `--k 5 --ell 5 --gen 1,2,0,0,0 --analysis verify` as the
# label walk printed it: every suite passes
SLOW_VERIFY_JOB = "--k 5 --ell 5 --gen 1,2,0,0,0 --analysis verify"
SLOW_VERIFY_SHA256 = "9bbfb229f4acac864ee34a9c0bfa664843cae814b570019e3532511904afa40c"


def test_off_bench_verify_job_report_is_pinned(capsys):
    assert main(SLOW_VERIFY_JOB.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SLOW_VERIFY_SHA256


def test_realization_builds_labels_only_for_its_sample(monkeypatch):
    # 15^5 = 759,375 labels at k=5, ell=5: the fold decides them all
    built = count_calls(monkeypatch, pfkit.modules.LabelTable, "label")
    assert verify_realization(span([(1, 2, 0, 0, 0)], 5, 5), CAP).passed
    assert len(built) == 64


@st.composite
def caseB_codes(draw):
    """A first row g0 with (g0|g0) = k/2 and an optional second row h with
    (h|h) and (g0|h) in {0, k/2}: by bilinearity every pairing of the span
    lies in {0, k/2}, so each draw is Case B."""
    k = draw(st.sampled_from([2, 4, 6, 10]))
    # (x|x) = 2 mod 4 needs two entries at k=4
    ell = draw(st.integers(2 if k == 4 else 1, {2: 4, 4: 3, 6: 3, 10: 2}[k]))
    half = k // 2
    words = list(product(range(k), repeat=ell))
    g0 = draw(st.sampled_from([w for w in words if inner(w, w, k) == half]))
    gens = [g0]
    if draw(st.booleans()):
        rows = [h for h in words if {inner(h, h, k), inner(g0, h, k)} <= {0, half}]
        gens.append(draw(st.sampled_from(rows)))
    code = span(gens, k, ell)
    assert code.case is Case.B
    return code


@settings(max_examples=40, deadline=None)
@given(caseB_codes())
def test_caseB_records_match_member_fusion(code):
    assert caseB_modules(code) == caseB_by_member_fusion(code)


@pytest.mark.parametrize(
    "code",
    [span([(5, 0)], 10, 2), span([(1, 1, 1)], 6, 3), span([(3, 0), (0, 3)], 6, 2)],
    ids=["k10", "k6-ell3", "k6-fixed-points"],
)
def test_caseB_records_match_member_fusion_on_fixed_codes(code):
    assert caseB_modules(code) == caseB_by_member_fusion(code)


def test_search_cap_trips_before_any_coset_label(monkeypatch, capsys):
    def unreachable(k):
        raise AssertionError(f"coset labels of level {k} were built")

    for module in (pfkit.cosets, V):
        monkeypatch.setattr(module, "all_labels", unreachable)
    argv = ["--k", "13", "--ell", "1", "--analysis", "verify", "--verify-max-k", "13"]
    assert main(argv) == 4
    assert "exhaustive norm search is capped at rank 12, got 13" in capsys.readouterr().err


def test_non_multiple_current_weight_raises(monkeypatch):
    # 2k(k + 2) = 48 at k=4; 1/96 has no integer numerator over it
    monkeypatch.setattr(V, "sc_weight", lambda k, p: Fraction(1, 96))
    with pytest.raises(VerificationError, match="1/96 is not a multiple of 1/48"):
        verify_extension_monodromy(span([(2, 2)], 4, 2), CAP)


def test_check_numerator():
    assert check_numerator(Fraction(3, 4), 8) == 6
    assert check_numerator(2, 5) == 10
    with pytest.raises(VerificationError, match="1/3 is not a multiple of 1/8"):
        check_numerator(Fraction(1, 3), 8)


def smith_by_pivots(matrix):
    """Diagonal of the Smith normal form of a square integer matrix, by the
    pivot elimination that `_smith_diagonal` ran before it alternated Hermite
    forms: clear the pivot's column and row until both are clear."""
    m = [list(row) for row in matrix]
    n = len(m)
    diag = []
    top = 0
    while top < n:
        # find a nonzero entry in the remaining block
        pivot = None
        for r in range(top, n):
            for c in range(top, n):
                if m[r][c]:
                    pivot = (r, c)
                    break
            if pivot:
                break
        if pivot is None:
            break
        r, c = pivot
        m[top], m[r] = m[r], m[top]
        for row in m:
            row[top], row[c] = row[c], row[top]
        while True:
            # clear column
            again = False
            for r in range(top + 1, n):
                while m[r][top]:
                    q = m[r][top] // m[top][top]
                    m[r] = [a - q * b for a, b in zip(m[r], m[top])]
                    if m[r][top]:
                        m[top], m[r] = m[r], m[top]
                        again = True
            # clear row
            for c in range(top + 1, n):
                while m[top][c]:
                    q = m[top][c] // m[top][top]
                    for row in m:
                        row[c] -= q * row[top]
                    if m[top][c]:
                        for row in m:
                            row[top], row[c] = row[c], row[top]
                        again = True
            if not again:
                break
        diag.append(abs(m[top][top]))
        top += 1
    # enforce the divisibility chain
    for a in range(len(diag)):
        for b in range(a + 1, len(diag)):
            x, y = diag[a], diag[b]
            if y % x:
                g = gcd(x, y)
                diag[a], diag[b] = g, x * y // g
    return diag


def determinant(matrix):
    """Exact determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(m)):
        r = next((r for r in range(c, len(m)) if m[r][c]), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    entry = st.integers(-20, 20)
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_smith_form_matches_pivot_elimination(matrix):
    det = determinant(matrix)
    assume(det != 0)
    diag = _smith_diagonal(matrix)
    assert diag == smith_by_pivots(matrix)
    assert prod(diag) == abs(det)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))


@pytest.mark.parametrize(
    "matrix",
    [[], [[0, 0], [0, 0]], [[2, 4], [3, 6]], [[0, 6, 4], [0, 3, 2], [0, 0, 0]]],
    ids=["empty", "zero", "rank-1", "rank-1-zero-column"],
)
def test_singular_smith_forms_leave_out_the_zeros(matrix):
    assert _smith_diagonal(matrix) == smith_by_pivots(matrix)


@st.composite
def supported_codes(draw):
    """A code with k <= 6 and ell <= 4 from up to two generators of
    self-pairing 0 or k/2, so each spans a Case A or Case B code alone; a
    pair that leaves both cases keeps its first generator."""
    k = draw(st.integers(2, 6))
    ell = draw(st.integers(1, 4))
    allowed = {0, k // 2} if k % 2 == 0 else {0}
    words = [w for w in product(range(k), repeat=ell) if inner(w, w, k) in allowed]
    gens = draw(st.lists(st.sampled_from(words), max_size=2))
    code = span(gens, k, ell)
    return span(gens[:1], k, ell) if code.case is Case.UNSUPPORTED else code


@settings(max_examples=100, deadline=None)
@given(supported_codes())
def test_code_lattice_factors_match_pivot_elimination(code):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pfkit.cosets, "_smith_diagonal", smith_by_pivots)
        want = build_code_lattice(code, verify=True).invariant_factors
    assert build_code_lattice(code, verify=True).invariant_factors == want
