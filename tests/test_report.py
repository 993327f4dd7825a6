"""Report assembly and the command line wrapper.

The JSON schema is load-bearing for downstream consumers, so these tests
pin it hard: key set, null sections for analyses that were not requested,
rationals serialized as "p/q" strings, and byte-identical output across
repeated runs.  The table writers of `build` reports, which write from
walk prefixes and lattice cells, are compared with the same writers on the
`run` dict and with `json.dumps(report, indent=2)`, and the per-(j, weight)
lattice table and the text tables with per-row references.  The text
renderer is compared with a reference that renders each table by its own
block, on random reports with empty tables and null sections.
"""

import hashlib
import io
import json
import random
import re
import sys
import tempfile
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfkit import branching, census, cosets, modules, tables, zkcodes
from pfkit import report as R
from pfkit.cli import main
from pfkit.cosets import all_labels, min_norm_data
from pfkit.errors import DEFAULT_ORBIT_CAP, VerificationError
from pfkit.report import JobSpec, build, rat, run, to_json, to_text, verify_passed
from pfkit.verify import VerifyResult, verify_realization
from pfkit.zkcodes import Case, span

TOP_KEYS = [
    "input",
    "classification",
    "central_charge",
    "lattice",
    "branch",
    "orbits",
    "counts",
    "case_b",
    "verify",
]


def full_job(**overrides):
    base = dict(
        k=4,
        ell=1,
        generators=((2,),),
        analyses=("classify", "lattice", "branch", "modules"),
        fmt="json",
    )
    base.update(overrides)
    return JobSpec(**base)


def walk(node, path=""):
    """Yield (path, leaf) pairs over a nested dict/list/tuple report."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from walk(value, f"{path}.{key}")
    elif isinstance(node, (list, tuple)):
        for idx, value in enumerate(node):
            yield from walk(value, f"{path}[{idx}]")
    else:
        yield path, node


class TestRat:
    def test_integer_keeps_denominator(self):
        assert rat(1) == "1/1"

    def test_fraction(self):
        from fractions import Fraction

        assert rat(Fraction(16, 7)) == "16/7"
        assert rat(Fraction(-1, 2)) == "-1/2"


class TestRunSchema:
    def test_top_level_keys_in_order(self):
        report = run(full_job())
        assert list(report.keys()) == TOP_KEYS

    def test_unrequested_sections_are_null(self):
        report = run(JobSpec(k=4, ell=1, generators=((2,),)))
        for key in ("lattice", "branch", "orbits", "counts", "case_b", "verify"):
            assert report[key] is None
        assert report["classification"]["case"] == "CaseA"

    def test_no_floats_and_rationals_are_strings(self):
        report = run(full_job())
        for path, leaf in walk(report):
            assert not isinstance(leaf, float), f"float at {path}: {leaf!r}"
            if isinstance(leaf, str) and "/" in leaf and ":" not in leaf:
                num, _, den = leaf.partition("/")
                int(num), int(den)

    def test_central_charge_formats(self):
        assert run(JobSpec(k=2, ell=1))["central_charge"] == "1/2"
        assert run(JobSpec(k=4, ell=1))["central_charge"] == "1/1"
        assert run(JobSpec(k=5, ell=2))["central_charge"] == "16/7"

    def test_byte_identical_reruns(self):
        job = full_job()
        first = to_json(run(job))
        second = to_json(run(job))
        assert first == second

    def test_json_round_trip(self):
        text = to_json(run(full_job()))
        assert json.dumps(json.loads(text), indent=2) == text

    def test_lattice_section_content(self):
        report = run(full_job(analyses=("lattice",)))
        sec = report["lattice"]
        assert sec["parity"] == "even"
        assert sec["discriminant_order"] == 8
        table = sec["min_norm_table"]
        assert len(table) == 2 ** 3 * 4
        by_coset = {row["coset"]: row for row in table}
        assert by_coset["0:1111"] == {
            "coset": "0:1111",
            "min_norm": "0/1",
            "count": 1,
        }
        assert by_coset["1:1111"]["min_norm"] == "3/2"
        assert by_coset["1:1111"]["count"] == 4

    def test_branch_respects_coset_selector(self):
        report = run(
            JobSpec(
                k=3,
                ell=1,
                analyses=("branch",),
                coset=(5, (0, 0, 1)),
            )
        )
        assert report["branch"]["coset"] == "1:110"

    def test_modules_sections_for_case_b(self):
        report = run(
            JobSpec(k=6, ell=1, generators=((3,),), analyses=("modules",))
        )
        assert report["counts"]["acting_code"] == "even_part"
        verdicts = {row["verdict"] for row in report["case_b"]}
        assert verdicts == {"Fused", "Split"}

    def test_case_b_sweeps_even_part_orbits_once(self, monkeypatch):
        calls = []
        sweep = modules.orbits

        def counted(*args, **kwargs):
            calls.append(args)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(modules, "orbits", counted)
        report = run(
            JobSpec(k=6, ell=3, generators=((1, 1, 1),), analyses=("modules",))
        )
        assert len(calls) == 1
        alone = modules.caseB_modules(span([(1, 1, 1)], 6, 3))
        assert report["case_b"] == [
            {
                "pair": [str(rec.pair[0]), str(rec.pair[1])],
                "verdict": rec.verdict.value,
                "regime": rec.induced.regime.value,
                "num_irreducibles": rec.induced.num_irreducibles,
                "multiplicity": rec.induced.multiplicity,
            }
            for rec in alone
        ]

    def test_case_b_census_builds_no_public_record(self, monkeypatch):
        # the report pairs its own orbit rows (`modules._mates`): it builds no
        # label, decomposition or pairing record, and spans its even part
        # once; `caseB_modules` alone decomposes only the orbits it pairs,
        # 1,650 of the 3,025 here
        built = Counter()
        for name in ("IrrLabel", "InducedReport", "CaseBRecord", "even_part_code"):

            def counted(*args, name=name, real=getattr(modules, name)):
                built[name] += 1
                return real(*args)

            monkeypatch.setattr(modules, name, counted)
        report = build(JobSpec(k=10, ell=2, generators=((5, 0),), analyses=("modules",)))
        assert len(list(report["case_b"])) == 1650  # a row source: its row dicts
        assert built == Counter(even_part_code=1)
        built.clear()
        assert len(modules.caseB_modules(span([(5, 0)], 10, 2))) == 1650
        assert 1 <= built["InducedReport"] <= 1650

    def test_verify_section_and_gate(self):
        report = run(JobSpec(k=3, ell=1, analyses=("verify",)))
        assert report["verify"], "verify section should not be empty"
        assert all(entry["pass"] for entry in report["verify"])
        assert verify_passed(report)

    def test_verify_passed_vacuous_without_section(self):
        assert verify_passed(run(JobSpec(k=3, ell=1)))


class TestRunValidation:
    def test_bad_level(self):
        from pfkit.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            run(JobSpec(k=1, ell=1))

    def test_bad_analysis_name(self):
        from pfkit.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            run(JobSpec(k=3, ell=1, analyses=("spectrum",)))

    def test_coset_bits_must_match_level(self):
        from pfkit.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            run(JobSpec(k=4, ell=1, analyses=("branch",), coset=(0, (1, 1))))

    @pytest.mark.parametrize("j", [1.0, 1.5, "1"])
    def test_coset_shift_must_be_an_integer(self, j):
        from pfkit.errors import InvalidInputError

        job = JobSpec(k=4, ell=1, analyses=("branch",), coset=(j, (1, 1, 0, 0)))
        with pytest.raises(InvalidInputError, match="coset shift must be an integer"):
            run(job)

    def test_verify_cap(self):
        from pfkit.errors import CapExceededError

        with pytest.raises(CapExceededError):
            run(JobSpec(k=9, ell=1, analyses=("verify",), verify_max_k=8))


# Every report job these tests run, plus small versions of the table jobs.
TEST_JOBS = [
    full_job(),
    full_job(fmt="text"),
    full_job(analyses=("lattice",)),
    JobSpec(k=4, ell=1, generators=((2,),)),
    JobSpec(k=2, ell=1),
    JobSpec(k=5, ell=2),
    JobSpec(k=3, ell=1, analyses=("branch",), coset=(5, (0, 0, 1))),
    JobSpec(k=6, ell=1, generators=((3,),), analyses=("modules",)),
    JobSpec(k=6, ell=1, generators=((3,),), analyses=("classify", "modules")),
    JobSpec(k=3, ell=1, analyses=("verify",)),
    JobSpec(k=6, ell=1, analyses=("branch",), coset=(1, (1, 1, 0, 0, 0, 0))),
    JobSpec(k=5, ell=1, analyses=("branch",), fmt="json"),
    JobSpec(k=7, ell=1, analyses=("lattice",), fmt="json"),
    JobSpec(k=6, ell=1, generators=((0,),), analyses=("lattice",)),
]


def lattice_table_by_label(k):
    """Reference: one closed-form call and one label string per row."""
    rows = []
    for lab in all_labels(k):
        value, count = min_norm_data(k, lab.j, lab.bits)
        rows.append({"coset": str(lab), "min_norm": rat(value), "count": count})
    return rows


def branch_rows_by_component(k, j, bits):
    """Reference: the rows built from the public `branching.branch`, each
    component's labels converted entry by entry."""
    return [
        {
            "indices": c.indices,
            "virasoro": tuple((lab.m, lab.r, lab.s) for lab in c.virasoro),
            "pf": (c.pf.i, c.pf.j),
            "weight": rat(c.weight),
        }
        for c in branching.branch(k, j, bits)
    ]


def table_by_row(rows, columns):
    """Reference text table: cell strings rebuilt for the widths and again
    for the lines."""
    widths = {
        c: max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c)
        for c in columns
    }
    head = "  ".join(c.ljust(widths[c]) for c in columns)
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append("  ".join(str(r[c]).ljust(widths[c]) for c in columns))
    return lines


texts = st.text(max_size=6)
lattice_rows = st.lists(
    st.fixed_dictionaries(
        {"coset": texts, "min_norm": texts, "count": st.integers(-(10**20), 10**20)}
    ),
    max_size=4,
)
int_lists = st.lists(st.integers(-5, 99), max_size=3)
branch_rows = st.lists(
    st.fixed_dictionaries(
        {
            "indices": int_lists | int_lists.map(tuple),
            "virasoro": st.lists(int_lists.map(tuple), max_size=3),
            "pf": st.tuples(st.integers(0, 9), st.integers(0, 9)),
            "weight": texts,
        }
    ),
    max_size=4,
)
# values `run` never puts in those rows: the writer must fall back
odd_values = st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=2)


class TestJsonWriter:
    @pytest.mark.parametrize("job", TEST_JOBS)
    def test_matches_json_dumps_on_test_jobs(self, job):
        report = run(job)
        assert to_json(report) == json.dumps(report, indent=2)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_json_dumps_on_random_selectors(self, data):
        k = data.draw(st.integers(2, 6))
        j = data.draw(st.integers(-k, 2 * k))
        bits = data.draw(st.tuples(*[st.integers(0, 1)] * k))
        report = run(JobSpec(k=k, ell=1, analyses=("lattice", "branch"), coset=(j, bits)))
        assert to_json(report) == json.dumps(report, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(lattice_rows, branch_rows)
    def test_matches_json_dumps_on_random_rows(self, table, components):
        plain = run(JobSpec(k=2, ell=1, analyses=("lattice", "branch")))
        plain["lattice"]["min_norm_table"] = table
        plain["branch"]["components"] = components
        assert to_json(plain) == json.dumps(plain, indent=2)

    def test_falls_back_on_other_row_shapes(self):
        plain = run(JobSpec(k=3, ell=1, analyses=("lattice", "branch")))
        plain["lattice"]["min_norm_table"][0]["extra"] = 1
        del plain["branch"]["components"][0]["pf"]
        plain["branch"]["components"][1] = ["not", "a", "row"]
        assert to_json(plain) == json.dumps(plain, indent=2)

    def test_empty_and_null_sections(self):
        report = run(JobSpec(k=3, ell=1, analyses=("lattice", "branch")))
        report["lattice"]["min_norm_table"] = []
        report["branch"]["components"] = []
        assert to_json(report) == json.dumps(report, indent=2)
        report["lattice"] = {}
        report["branch"] = None
        assert to_json(report) == json.dumps(report, indent=2)


class WriterReached(Exception):
    """Raised by a patched table writer when `to_json` or `to_text` asks for it."""


def raising_writer(name):
    def writer(*args):
        raise WriterReached(name)

    return writer


class TestTrustBoundary:
    """The table writers write the row sources of `build` from their walk
    prefixes, lattice cells and orbit records, unchecked; every value of a
    `run` dict, its table lists included, goes to `json.dumps` or is
    rendered row by row."""

    @staticmethod
    def writers_raise(monkeypatch):
        for table in ("lattice", "branch"):
            monkeypatch.setattr(tables, f"_{table}_json", raising_writer(table))
            monkeypatch.setattr(tables, f"_{table}_text", raising_writer(table))
        for table in ("orbit", "count", "pair"):
            monkeypatch.setattr(census, f"_{table}_json", raising_writer("modules"))
            monkeypatch.setattr(census, f"_{table}_text", raising_writer("modules"))

    @pytest.mark.parametrize("job", TEST_JOBS)
    def test_run_reports_reach_no_row_writer(self, monkeypatch, job):
        report = run(job)
        self.writers_raise(monkeypatch)
        assert to_json(report) == json.dumps(report, indent=2)
        assert to_text(report) == to_text_reference(report)

    @pytest.mark.parametrize("analysis", ["lattice", "branch", "modules"])
    def test_build_reports_reach_each_row_writer(self, monkeypatch, analysis):
        self.writers_raise(monkeypatch)
        report = build(JobSpec(k=3, ell=1, analyses=(analysis,), fmt="json"))
        for write in (to_json, to_text):
            with pytest.raises(WriterReached, match=analysis):
                write(report)
            with pytest.raises(WriterReached, match=analysis):
                write(report, io.StringIO())

    @pytest.mark.parametrize("section", ["table", "input"])
    def test_circular_values_raise_as_in_json_dumps(self, section):
        # the walk stops at the section dicts and hands their values to json.dumps
        report = run(JobSpec(k=3, ell=1, analyses=("lattice",)))
        if section == "table":
            table = report["lattice"]["min_norm_table"]
            table.append(table)
        else:
            report["input"]["self"] = report["input"]
        with pytest.raises(ValueError) as want:
            json.dumps(report, indent=2)
        with pytest.raises(ValueError) as got:
            to_json(report)
        assert str(got.value) == str(want.value) == "Circular reference detected"


class TestTables:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_lattice_table_matches_per_label_reference(self, k):
        table = run(JobSpec(k=k, ell=1, analyses=("lattice",)))["lattice"]["min_norm_table"]
        assert table == lattice_table_by_label(k)

    def test_branch_rows_share_kac_tuples_and_weights(self):
        report = run(JobSpec(k=6, ell=1, analyses=("branch",), coset=(1, (1,) * 6)))
        rows = report["branch"]["components"]
        kac = [lab for row in rows for lab in row["virasoro"]]
        assert len({id(lab) for lab in kac}) == len(set(kac))
        assert len({id(row["weight"]) for row in rows}) == len({row["weight"] for row in rows})
        assert all(type(row["indices"]) is tuple and len(row["pf"]) == 2 for row in rows)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_branch_rows_match_public_branch_on_every_coset(self, k):
        for lab in all_labels(k):
            job = JobSpec(k=k, ell=1, analyses=("branch",), coset=(lab.j, lab.bits))
            rows = run(job)["branch"]["components"]
            assert rows == branch_rows_by_component(k, lab.j, lab.bits)
            kac = [entry for row in rows for entry in row["virasoro"]]
            assert len({id(entry) for entry in kac}) == len(set(kac))

    def test_run_builds_no_branch_component(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the report path built a BranchComponent")

        monkeypatch.setattr(branching, "branch", unreachable)
        monkeypatch.setattr(branching, "BranchComponent", unreachable)
        report = run(JobSpec(k=5, ell=1, analyses=("branch",)))
        assert len(report["branch"]["components"]) == branching.component_count(5, (1,) * 5)

    def test_writing_a_built_report_builds_no_row_dict(self, monkeypatch):
        job = JobSpec(k=6, ell=1, analyses=("lattice", "branch"), coset=(1, (1,) * 6))
        plain = run(job)

        def unreachable(*args):
            raise AssertionError("a table writer built a row dict")

        monkeypatch.setattr(tables, "_lattice_rows", unreachable)
        monkeypatch.setattr(tables, "_branch_rows", unreachable)
        report = build(job)
        assert to_json(report) == json.dumps(plain, indent=2)
        assert to_text(report) == to_text(plain)
        for write in (to_json, to_text):
            out = io.StringIO()
            write(report, out)
            assert out.getvalue() == write(plain)

    @pytest.mark.parametrize("k", range(2, 8))
    def test_branch_writers_match_run_on_every_coset(self, k):
        for lab in all_labels(k):
            job = JobSpec(k=k, ell=1, analyses=("branch",), coset=(lab.j, lab.bits))
            assert_writers_match_run(job, layout=k < 7)

    @pytest.mark.parametrize("k", (8, 9, 10))
    def test_branch_writers_match_run_at_depth(self, k):
        # a seeded sample of cosets, with both branch cosets of the benchmark:
        # the identity at k=9 and 1:1100000000 at k=10 (86,400 rows)
        if k == 10:
            sample = [(1, (1, 1) + (0,) * 8)]
        else:
            drawn = random.Random(k).sample(all_labels(k), 4 if k == 8 else 1)
            sample = [None] + [(lab.j, lab.bits) for lab in drawn]
        for coset in sample:
            assert_writers_match_run(JobSpec(k=k, ell=1, analyses=("branch",), coset=coset), layout=False)

    @pytest.mark.parametrize("k", range(2, 15))
    def test_lattice_writers_match_run(self, k):
        assert_writers_match_run(JobSpec(k=k, ell=1, analyses=("lattice",)))

    @pytest.mark.parametrize("k", range(2, 9))
    def test_branch_widths_match_the_column_maxima(self, k):
        for lab in all_labels(k):
            report = build(JobSpec(k=k, ell=1, analyses=("branch",), coset=(lab.j, lab.bits)))
            walk, den = report["branch"]["components"].args
            kac = R._Texts("(%s,%s,%s)".__mod__)
            weight = R._Texts(lambda num: rat(Fraction(num, den)))
            assert tables._branch_widths(walk, kac, weight) == branch_column_maxima(walk, den)

    def test_writing_a_built_report_renders_no_cell_list(self, monkeypatch):
        job = JobSpec(k=6, ell=1, analyses=("lattice", "branch"), coset=(1, (1,) * 6))
        want = to_text(run(job))

        def unreachable(*args):
            raise AssertionError("a table writer built a cell list")

        monkeypatch.setattr(R, "_cells", unreachable)
        monkeypatch.setattr(R, "_grid", unreachable)
        report = build(job)
        assert to_text(report) == want
        out = io.StringIO()
        to_text(report, out)
        assert out.getvalue() == want

    def test_renderers_keep_bools_apart_from_equal_ints(self):
        # the text caches are keyed by identity: True == 1, but json.dumps
        # writes true and str writes True
        report = run(JobSpec(k=3, ell=1, analyses=("branch",)))
        first, second = report["branch"]["components"][:2]
        first.update(indices=(1, 2, 1), virasoro=((1, 2, 2), (True, 2, 2)), pf=(1, 0))
        second.update(indices=(True, 2, 1), virasoro=((True, 2, 2), (1, 2, 2)), pf=(True, 0))
        assert to_json(report) == json.dumps(report, indent=2)
        assert to_text(report) == to_text_reference(report)
        assert "(True,2,2) (1,2,2)" in to_text(report)

    @pytest.mark.parametrize("k", (2, 5, 7))
    def test_text_tables_match_per_row_reference(self, k):
        report = run(JobSpec(k=k, ell=1, analyses=("lattice", "branch"), coset=(1, (1,) + (0,) * (k - 1))))
        branch_rows = [
            {
                "indices": ",".join(str(i) for i in c["indices"]),
                "virasoro": " ".join(f"({m},{r},{s})" for m, r, s in c["virasoro"]),
                "pf": f"({c['pf'][0]},{c['pf'][1]})",
                "weight": c["weight"],
            }
            for c in report["branch"]["components"]
        ]
        lines = to_text(report).split("\n")
        lattice = table_by_row(report["lattice"]["min_norm_table"], ["coset", "min_norm", "count"])
        branch = table_by_row(branch_rows, ["indices", "virasoro", "pf", "weight"])
        start = lines.index(lattice[0])
        assert lines[start : start + len(lattice)] == lattice
        start = lines.index(branch[0])
        assert lines[start : start + len(branch)] == branch


# Census jobs: fixed points at k = 0 (mod 4), a Case B code whose even part
# has fixed points at k = 2 (mod 4), and a Case B code with two-digit labels
CENSUS_JOBS = [
    JobSpec(k=4, ell=3, generators=((2, 2, 0), (0, 2, 2)), analyses=("modules",)),
    JobSpec(k=6, ell=2, generators=((3, 0), (0, 3)), analyses=("modules",), fmt="json"),
    JobSpec(k=10, ell=1, generators=((5,),), analyses=("modules",)),
]


class TestCensus:
    def test_writing_a_built_report_builds_no_row_dict(self, monkeypatch):
        wants = []
        for job in CENSUS_JOBS:
            plain = run(job)
            wants.append((json.dumps(plain, indent=2), to_text(plain)))

        def unreachable(*args):
            raise AssertionError("a census writer built a row dict or a cell list")

        for name in ("_orbit_rows", "_count_rows", "_pair_rows"):
            monkeypatch.setattr(census, name, unreachable)
        monkeypatch.setattr(R, "_cells", unreachable)
        monkeypatch.setattr(R, "_grid", unreachable)
        for job, want in zip(CENSUS_JOBS, wants):
            report = build(job)
            for write, text in zip((to_json, to_text), want):
                assert write(report) == text
                out = io.StringIO()
                write(report, out)
                assert out.getvalue() == text

    @pytest.mark.parametrize("job", CENSUS_JOBS[1:])  # the Case B jobs
    def test_run_lists_every_census_row_source(self, job):
        # the pairing is a row source at the top level of the report, the
        # other two inside their sections
        built, plain = build(job), run(job)
        paths = [("orbits", "rows"), ("counts", "rows"), ("case_b",)]
        for path in paths:
            source, rows = built, plain
            for key in path:
                source, rows = source[key], rows[key]
            assert type(source) is R._Rows and type(rows) is list and rows == list(source)
        assert plain["case_b"]  # each job pairs its orbits
        assert to_json(built) == json.dumps(plain, indent=2)

    def test_census_writers_match_run_at_depth(self):
        # 1,650 pairs at k = 10, with label texts of two lengths
        assert_writers_match_run(JobSpec(k=10, ell=2, generators=((5, 0),), analyses=("modules",)))


def branch_column_maxima(walk, den):
    """Reference: the branch text columns' widths, header included, as the
    maxima over every component of the `_walk` result `walk`: each group's
    prefix text plus the widest completion among its last-step entries."""
    widths = list(map(len, R._BRANCH_COLUMNS))
    ends, weights, kac_len, weight_len = {}, {}, {}, {}
    for prefix, vir, hnum, last in walk():
        if id(last) not in ends:
            ends[id(last)] = [
                max(len(str(b)) for b, _, _, _ in last),
                max(len("(%s,%s,%s)" % lab) for _, lab, _, _ in last),
                max(len(f"({pf.i},{pf.j})") for _, _, _, pf in last),
            ]
        if (hnum, id(last)) not in weights:
            weights[hnum, id(last)] = max(
                weight_len.get(num) or weight_len.setdefault(num, len(rat(Fraction(num, den))))
                for num in (hnum + h for _, _, h, _ in last)
            )
        index, kac, pf = ends[id(last)]
        cells = (
            len(",".join(map(str, prefix))) + 1 + index,
            sum(kac_len.get(lab) or kac_len.setdefault(lab, len("(%s,%s,%s) " % lab)) for lab in vir) + kac,
            pf,
            weights[hnum, id(last)],
        )
        widths = [max(w, cell) for w, cell in zip(widths, cells)]
    return widths


def assert_writers_match_run(job, layout=True):
    """`build(job)` and `run(job)` give the same text and JSON, and the JSON
    is `json.dumps` of the `run` dict.  With `layout` false the JSON is
    compared without its line breaks and indents, against the C encoder's
    `json.dumps` of the `run` dict with the same separators: every value and
    separator byte for byte, at a fraction of the indenting encoder's time."""
    plain, report = run(job), build(job)
    # compared as lists of pieces: pytest diffs two unequal strings with
    # difflib, which takes minutes on a table of megabytes
    assert to_text(report).split("\n") == to_text(plain).split("\n")
    if layout:
        want = json.dumps(plain, indent=2).split("\n")
        assert to_json(report).split("\n") == to_json(plain).split("\n") == want
    else:
        # encoded strings hold no raw newline, so each one starts an indent
        got = re.sub("\n *", "", to_json(report))
        assert got.split(",") == json.dumps(plain, separators=(",", ": ")).split(",")


def to_text_reference(report):
    """The text renderer as it was before its tables shared one loop: one
    hand-written block per table, rows rebuilt as dicts of cell values, and
    `table_by_row` for the grids."""
    lines = []
    inp = report["input"]
    gens = "; ".join(",".join(str(x) for x in g) for g in inp["generators"])
    lines.append(f"code: k={inp['k']} ell={inp['ell']} generators=[{gens}]")
    cls = report["classification"]
    lines.append(
        f"classification: {cls['case']} size={cls['size']}"
        + (
            f" even={cls['even_part_size']} odd={cls['odd_part_size']}"
            if "even_part_size" in cls
            else ""
        )
    )
    lines.append(f"central charge: {report['central_charge']}")
    if report["lattice"] is not None:
        lat = report["lattice"]
        lines.append("")
        lines.append(f"lattice: parity={lat['parity']} discriminant={lat['discriminant_order']}")
        lines.extend(table_by_row(lat["min_norm_table"], ["coset", "min_norm", "count"]))
    if report["branch"] is not None:
        br = report["branch"]
        lines.append("")
        lines.append(f"branch of coset {br['coset']} (min norm {br['min_norm']}):")
        rows = [
            {
                "indices": ",".join(str(i) for i in c["indices"]),
                "virasoro": " ".join(f"({m},{r},{s})" for m, r, s in c["virasoro"]),
                "pf": f"({c['pf'][0]},{c['pf'][1]})",
                "weight": c["weight"],
            }
            for c in br["components"]
        ]
        lines.extend(table_by_row(rows, ["indices", "virasoro", "pf", "weight"]))
    if report["orbits"] is not None:
        orb = report["orbits"]
        lines.append("")
        lines.append(f"orbits (acting code: {orb['acting_code']}):")
        lines.extend(table_by_row(orb["rows"], ORBIT_COLUMNS))
    if report["counts"] is not None:
        lines.append("")
        lines.append("twisted module counts per character:")
        lines.extend(table_by_row(report["counts"]["rows"], ["character", "count"]))
    if report["case_b"] is not None:
        lines.append("")
        lines.append("superalgebra sector pairing:")
        rows = [
            {
                "pair": f"{r['pair'][0]} | {r['pair'][1]}",
                "verdict": r["verdict"],
                "regime": r["regime"],
                "num_irreducibles": r["num_irreducibles"],
                "multiplicity": r["multiplicity"],
            }
            for r in report["case_b"]
        ]
        lines.extend(
            table_by_row(rows, ["pair", "verdict", "regime", "num_irreducibles", "multiplicity"])
        )
    if report["verify"] is not None:
        lines.append("")
        lines.append("verification:")
        for entry in report["verify"]:
            status = "pass" if entry["pass"] else "FAIL"
            detail = f" -- {entry['detail']}" if entry["detail"] else ""
            lines.append(f"  {entry['name']}: {status}{detail}")
    lines.append("")
    return "\n".join(lines)


ORBIT_COLUMNS = [
    "representative",
    "size",
    "stabilizer_order",
    "character",
    "min_weight",
    "regime",
    "num_irreducibles",
    "multiplicity",
]
cell_values = texts | st.integers(-(10**6), 10**6)
kac = st.tuples(*[st.integers(-5, 99)] * 3)
kac_rows = st.lists(
    st.fixed_dictionaries(
        {
            "indices": int_lists | int_lists.map(tuple),
            "virasoro": st.lists(kac, max_size=3),
            "pf": st.tuples(st.integers(0, 9), st.integers(0, 9)),
            "weight": texts,
        }
    ),
    max_size=4,
)


def rows_of(columns):
    return st.lists(st.fixed_dictionaries({c: cell_values for c in columns}), max_size=4)


text_reports = st.fixed_dictionaries(
    {
        "input": st.fixed_dictionaries(
            {
                "k": st.integers(2, 12),
                "ell": st.integers(1, 4),
                "generators": st.lists(int_lists, max_size=2),
            }
        ),
        "classification": st.fixed_dictionaries({"case": texts, "size": cell_values})
        | st.fixed_dictionaries(
            {"case": texts, "size": cell_values, "even_part_size": cell_values, "odd_part_size": cell_values}
        ),
        "central_charge": texts,
        "lattice": st.none()
        | st.fixed_dictionaries(
            {"parity": texts, "discriminant_order": cell_values, "min_norm_table": lattice_rows}
        ),
        "branch": st.none()
        | st.fixed_dictionaries({"coset": texts, "min_norm": texts, "components": kac_rows}),
        "orbits": st.none()
        | st.fixed_dictionaries({"acting_code": texts, "rows": rows_of(ORBIT_COLUMNS)}),
        "counts": st.none()
        | st.fixed_dictionaries({"acting_code": texts, "rows": rows_of(["character", "count"])}),
        "case_b": st.none()
        | st.lists(
            st.fixed_dictionaries(
                {
                    "pair": st.lists(texts, min_size=2, max_size=2),
                    "verdict": texts,
                    "regime": texts,
                    "num_irreducibles": cell_values,
                    "multiplicity": cell_values,
                }
            ),
            max_size=4,
        ),
        "verify": st.none()
        | st.lists(
            st.fixed_dictionaries(
                {"name": texts, "pass": st.booleans(), "detail": st.none() | texts}
            ),
            max_size=3,
        ),
    }
)


class TestTextFormat:
    @settings(max_examples=200, deadline=None)
    @given(text_reports, st.booleans())
    def test_matches_reference_on_random_reports(self, report, share):
        if share and report["branch"] is not None:  # one Kac tuple object, as `run` shares them
            lab = (1, 2, 2)
            for row in report["branch"]["components"]:
                row["virasoro"] = [lab] * len(row["virasoro"])
        assert to_text(report) == to_text_reference(report)

    @pytest.mark.parametrize("job", TEST_JOBS)
    def test_matches_reference_on_test_jobs(self, job):
        report = run(job)
        assert to_text(report) == to_text_reference(report)

    def test_row_keys_are_the_column_tuples(self):
        sections = {
            ("lattice", "min_norm_table"): R._LATTICE_COLUMNS,
            ("branch", "components"): R._BRANCH_COLUMNS,
            ("orbits", "rows"): R._ORBIT_COLUMNS,
            ("counts", "rows"): R._COUNT_COLUMNS,
            ("case_b",): R._CASE_B_COLUMNS,
        }
        seen = set()
        for job in TEST_JOBS:
            report = run(job)
            for path, columns in sections.items():
                rows = report
                for key in path:
                    rows = rows[key] if rows is not None else None
                if rows:
                    assert all(tuple(row) == columns for row in rows), path
                    seen.add(path)
        assert seen == set(sections)  # every section had rows in some job

    def test_mentions_key_facts(self):
        text = to_text(run(full_job(fmt="text")))
        assert "CaseA" in text
        assert "1/1" in text
        assert "orbit" in text.lower()

    def test_ends_with_newline_or_is_printable(self):
        text = to_text(run(JobSpec(k=2, ell=1)))
        assert text.strip()


class TestCli:
    def test_classify_exits_zero(self, capsys):
        assert main(["--k", "4", "--ell", "1", "--gen", "2"]) == 0
        out = capsys.readouterr().out
        assert "A" in out

    def test_json_output_parses(self, capsys):
        rc = main(
            ["--k", "4", "--ell", "1", "--gen", "2", "--format", "json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["classification"]["case"] == "CaseA"

    def test_invalid_level_exits_two(self, capsys):
        assert main(["--k", "1", "--ell", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_generator_row_exits_two(self, capsys):
        assert main(["--k", "4", "--ell", "1", "--gen", "x"]) == 2

    def test_generator_entry_out_of_range_exits_two(self, capsys):
        assert main(["--k", "4", "--ell", "1", "--gen", "7"]) == 2

    def test_coset_wrong_length_exits_two(self, capsys):
        rc = main(
            [
                "--k",
                "4",
                "--ell",
                "1",
                "--analysis",
                "branch",
                "--coset",
                "0:011",
            ]
        )
        assert rc == 2

    def test_coset_canonicalized(self, capsys):
        rc = main(
            [
                "--k",
                "3",
                "--ell",
                "1",
                "--analysis",
                "branch",
                "--coset",
                "5:001",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["branch"]["coset"] == "1:110"

    def test_unsupported_code_exits_three(self, capsys):
        rc = main(
            ["--k", "4", "--ell", "1", "--gen", "1", "--analysis", "lattice"]
        )
        assert rc == 3
        rc = main(
            ["--k", "4", "--ell", "1", "--gen", "1", "--analysis", "modules"]
        )
        assert rc == 3

    def test_lattice_cap_trips_before_building_the_lattice(
        self, capsys, monkeypatch
    ):
        def unreachable(code, verify=False):
            raise AssertionError("lattice built before the cap check")

        monkeypatch.setattr("pfkit.cosets.build_code_lattice", unreachable)
        rc = main(
            ["--k", "5", "--ell", "1", "--analysis", "lattice", "--orbit-cap", "79"]
        )
        assert rc == 4
        err = capsys.readouterr().err
        assert "minimal-norm table of size 80 exceeds the cap of 79" in err

    def test_branch_cap_trips_before_branching(self, capsys, monkeypatch):
        def unreachable(k, j, bits):
            raise AssertionError("branch ran before the cap check")

        monkeypatch.setattr("pfkit.branching.branch", unreachable)
        rc = main(
            ["--k", "6", "--ell", "1", "--analysis", "branch", "--orbit-cap", "143"]
        )
        assert rc == 4
        err = capsys.readouterr().err
        assert "branching table of size 144 exceeds the cap of 143" in err

    def test_branch_rank_cap_still_exits_four(self, capsys):
        assert main(["--k", "11", "--ell", "1", "--analysis", "branch"]) == 4
        assert "branching rank 11 exceeds the cap of 10" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "--k 3 --ell 3 --analysis modules --orbit-cap 215",
                "label space of size 216 exceeds the cap of 215",
            ),
            (
                "--k 5 --ell 1 --analysis lattice --orbit-cap 79",
                "minimal-norm table of size 80 exceeds the cap of 79",
            ),
            (
                "--k 6 --ell 1 --analysis branch --orbit-cap 143",
                "branching table of size 144 exceeds the cap of 143",
            ),
            ("--k 11 --ell 1 --analysis branch", "branching rank 11 exceeds the cap of 10"),
            # the rank trips before the table is sized: at k = 14 the size
            # passes the orbit cap, at k = 5000 it has more digits than str
            # of an int allows
            ("--k 14 --ell 1 --analysis branch", "branching rank 14 exceeds the cap of 10"),
            ("--k 5000 --ell 1 --analysis branch", "branching rank 5000 exceeds the cap of 10"),
            (
                "--k 13 --ell 1 --analysis verify --verify-max-k 13",
                "exhaustive norm search rank 13 exceeds the cap of 12",
            ),
            ("--k 10 --ell 1 --analysis verify", "verification level 10 exceeds the cap of 8"),
            # 3^41 > 2^63 - 1: a raised cap acts as 2^63 - 1
            (
                f"--k 2 --ell 41 --analysis modules --orbit-cap {10**200}",
                f"label space of size {3**41} exceeds the cap of {sys.maxsize}",
            ),
            # sizes with more digits than str of an int allows are named by
            # their bit length: 500500^1000 and 2^99999 * 100000
            (
                "--k 1000 --ell 1000 --analysis modules",
                "label space of size at least 2^18933 exceeds the cap of 10000000",
            ),
            (
                "--k 100000 --ell 1 --analysis lattice",
                "minimal-norm table of size at least 2^100015 exceeds the cap of 10000000",
            ),
        ],
        ids=[
            "label-space",
            "lattice",
            "branch-table",
            "branch-rank",
            "branch-rank-14",
            "branch-rank-5000",
            "search-rank",
            "verify-level",
            "label-space-index-range",
            "label-space-past-str",
            "lattice-past-str",
        ],
    )
    def test_each_cap_exits_four_and_names_itself(self, capsys, argv, message):
        assert main(argv.split()) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_fusion_table_cap_trips_before_the_label_table(self, capsys, monkeypatch):
        # at ell = 1 the label space passes the default cap up to k = 4,471,
        # but the k * k(k + 1)/2 fusion entries trip it from k = 272
        def unbuilt(k):
            raise AssertionError(f"label table of level {k} built")

        monkeypatch.setattr(modules, "label_table", unbuilt)
        assert main("--k 300 --ell 1 --analysis modules".split()) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: fusion table of size 13545000 exceeds the cap of 10000000\n"

    @pytest.mark.parametrize("shift", [1, -1])
    def test_a_wrong_walk_pivot_exits_five_and_prints_nothing(self, capsys, monkeypatch, shift):
        # a pivot off by one at the last slot takes labels that are not
        # orbit minima, or leaves minima out; the size sum names the gap
        real = modules._pivot

        def wrong(code, moduli):
            d = real(code, moduli)
            return d + shift if len(moduli) == code.ell and d > 1 else d

        monkeypatch.setattr(modules, "_pivot", wrong)
        argv = "--k 4 --ell 2 --gen 2,2 --analysis modules"
        assert main(argv.split()) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: orbit sizes add up to ") and err.endswith(", not to the 100 labels\n")

    def test_verification_error_mid_analysis_exits_five(self, capsys, monkeypatch):
        from pfkit.errors import VerificationError

        def forced(code, x, direct):
            raise VerificationError("forced")

        monkeypatch.setattr(modules, "_check_stabilizer", forced)
        rc = main(["--k", "4", "--ell", "1", "--gen", "2", "--analysis", "modules"])
        assert rc == 5
        assert "forced" in capsys.readouterr().err

    def test_orbit_cap_exits_four(self, capsys):
        rc = main(
            [
                "--k",
                "4",
                "--ell",
                "1",
                "--gen",
                "2",
                "--analysis",
                "modules",
                "--orbit-cap",
                "3",
            ]
        )
        assert rc == 4

    def test_verify_level_cap_exits_four(self, capsys):
        rc = main(
            [
                "--k",
                "9",
                "--ell",
                "1",
                "--analysis",
                "verify",
                "--verify-max-k",
                "8",
            ]
        )
        assert rc == 4

    def test_forced_verify_failure_exits_five(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "pfkit.verify.run_suites",
            lambda code, cap: [
                VerifyResult("minimal_norms", False, "forced")
            ],
        )
        rc = main(["--k", "3", "--ell", "1", "--analysis", "verify"])
        assert rc == 5
        assert "forced" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        rc = main(
            [
                "--k",
                "2",
                "--ell",
                "1",
                "--format",
                "json",
                "--output",
                str(target),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        report = json.loads(target.read_text())
        assert report["central_charge"] == "1/2"

    def test_output_is_atomic(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "report.txt"
        target.write_bytes(b"old report\n")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("pfkit.cli.os.replace", failing_replace)
        assert main(["--k", "2", "--ell", "1", "--output", str(target)]) == 2
        assert "disk full" in capsys.readouterr().err
        assert target.read_bytes() == b"old report\n"
        assert [path.name for path in tmp_path.iterdir()] == ["report.txt"]

    def test_output_into_missing_directory_exits_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "out.txt"
        assert main(["--k", "3", "--ell", "1", "--output", str(target)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {target}: " in err
        assert list(tmp_path.iterdir()) == []

    def test_threads_env_is_ignored(self, capsys, monkeypatch):
        argv = ["--k", "3", "--ell", "1", "--analysis", "verify"]
        monkeypatch.delenv("PFKIT_THREADS", raising=False)
        plain = main(argv), capsys.readouterr()
        monkeypatch.setenv("PFKIT_THREADS", "zero")
        assert (main(argv), capsys.readouterr()) == plain
        assert plain[0] == 0

    def test_cli_json_matches_library_json(self, capsys):
        rc = main(
            [
                "--k",
                "6",
                "--ell",
                "1",
                "--gen",
                "3",
                "--analysis",
                "classify",
                "--analysis",
                "modules",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        cli_text = capsys.readouterr().out
        lib_text = to_json(
            run(
                JobSpec(
                    k=6,
                    ell=1,
                    generators=((3,),),
                    analyses=("classify", "modules"),
                    fmt="json",
                )
            )
        )
        assert cli_text.rstrip("\n") == lib_text.rstrip("\n")


def argv_of(job):
    """The command line that runs `job`."""
    argv = ["--k", str(job.k), "--ell", str(job.ell), "--format", job.fmt]
    argv += ["--orbit-cap", str(job.orbit_cap), "--verify-max-k", str(job.verify_max_k)]
    for row in job.generators:
        argv += ["--gen", ",".join(map(str, row))]
    for name in job.analyses:
        argv += ["--analysis", name]
    if job.coset is not None:
        argv.append(f"--coset={job.coset[0]}:{''.join(map(str, job.coset[1]))}")
    return argv


def dict_path_text(job):
    """What the CLI prints for `job`, rendered from the plain `run` dict."""
    report = run(job)
    return to_json(report) + "\n" if job.fmt == "json" else to_text(report)


def cli_text(job, output=None):
    """(exit code, stdout, stderr) of `main` on `job`, in process."""
    out, err = io.StringIO(), io.StringIO()
    argv = argv_of(job) + (["--output", str(output)] if output else [])
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def written_through_main(monkeypatch, job):
    """(bytes, tracemalloc peak) of `main` writing `job` to a digest sink;
    the digest must match the text of the `run` path."""
    want = dict_path_text(job).encode("utf-8")
    size, digest = len(want), hashlib.sha256(want).hexdigest()
    del want
    sink = DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        assert main(argv_of(job)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sink.size, sink.sha.hexdigest()) == (size, digest)
    return size, peak


class DigestSink:
    """A text stdout that keeps only the byte count and sha256 of what it gets."""

    def __init__(self):
        self.size, self.sha = 0, hashlib.sha256()

    def write(self, text):
        data = text.encode("utf-8")
        self.size += len(data)
        self.sha.update(data)
        return len(text)

    def flush(self):
        pass


class BrokenStdout:
    """A stdout whose reader has gone away after `room` writes."""

    def __init__(self, room=0):
        self.room = room

    def write(self, text):
        if self.room == 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.room -= 1
        return len(text)

    def flush(self):
        pass


class TestStreaming:
    """The CLI writes `build` reports in chunks; the bytes are those of the
    plain `run` dict, and a job that fails writes nothing."""

    @pytest.mark.parametrize("job", TEST_JOBS)
    def test_cli_matches_dict_path_on_test_jobs(self, job, tmp_path):
        want = dict_path_text(job)
        assert cli_text(job) == (0, want, "")
        target = tmp_path / "report"
        assert cli_text(job, target) == (0, "", "")
        assert target.read_text(encoding="utf-8") == want

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_cli_matches_dict_path_on_random_selectors(self, data):
        k = data.draw(st.integers(2, 6))
        job = JobSpec(
            k=k,
            ell=1,
            analyses=data.draw(st.sampled_from([("lattice", "branch"), ("branch",), ("lattice",)])),
            fmt=data.draw(st.sampled_from(["text", "json"])),
            coset=(data.draw(st.integers(-k, 2 * k)), data.draw(st.tuples(*[st.integers(0, 1)] * k))),
        )
        want = dict_path_text(job)
        assert cli_text(job) == (0, want, "")
        with tempfile.TemporaryDirectory() as directory:
            target = Path(directory) / "report"
            assert cli_text(job, target) == (0, "", "")
            assert target.read_text(encoding="utf-8") == want

    @pytest.mark.parametrize("job", TEST_JOBS)
    def test_a_built_report_writes_the_same_bytes_twice(self, job):
        report = build(job)
        write = to_json if job.fmt == "json" else to_text
        first, second = io.StringIO(), io.StringIO()
        assert write(report, first) is None
        write(report, second)
        assert first.getvalue() == second.getvalue() == write(report) == write(run(job))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["coset", "count", "indices", "virasoro", "pf", "weight", None]),
        odd_values,
        st.integers(0, 100),
    )
    def test_odd_row_in_a_row_source_falls_back_alone(self, key, value, at):
        plain = run(JobSpec(k=3, ell=1, analyses=("lattice", "branch")))
        section, name = ("lattice", "min_norm_table") if key in ("coset", "count") else ("branch", "components")
        rows = plain[section][name]
        at %= len(rows)
        rows[at] = ["not", "a", "row"] if key is None else {**rows[at], key: value}
        assert to_json(plain) == json.dumps(plain, indent=2)

    def test_json_memory_stays_flat(self, monkeypatch):
        job = JobSpec(k=9, ell=1, analyses=("branch",), fmt="json")
        size, peak = written_through_main(monkeypatch, job)
        assert size > 11 * 10**6  # the full 11.9 MB report went through
        assert peak < 8 * 2**20

    def test_text_memory_stays_flat(self, monkeypatch):
        # the text table's widths are known before its first row
        job = JobSpec(k=10, ell=1, analyses=("branch",), coset=(1, (1, 1) + (0,) * 8))
        size, peak = written_through_main(monkeypatch, job)
        assert size > 9 * 10**6  # the full 9.6 MB report went through
        assert peak < 8 * 2**20

    @pytest.mark.parametrize(
        "argv",
        [
            "--k 4 --ell 1 --gen 2 --analysis lattice --analysis branch --analysis modules",
            "--k 4 --ell 1 --gen 2 --analysis lattice --analysis branch --format json",
            "--k 8 --ell 1 --analysis branch --format json",
        ],
    )
    def test_stdout_gets_few_large_writes(self, monkeypatch, argv):
        # an unbuffered stdout passes each write to the OS as it is
        writes = []
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        monkeypatch.setattr(sys.stdout, "write", writes.append)
        assert main(argv.split()) == 0
        if "json" in argv:
            assert writes.pop() == "\n"
        assert all(len(text) >= R._WRITE_SIZE for text in writes[:-1])
        if sum(map(len, writes)) < R._WRITE_SIZE:
            assert len(writes) == 1
        else:
            assert len(writes) > 1

    @pytest.mark.parametrize("room", [0, 3])
    def test_broken_stdout_exits_two(self, monkeypatch, capsys, room):
        monkeypatch.setattr(sys, "stdout", BrokenStdout(room))
        # 2.1 MB of JSON: the reader goes away before, or in the middle of, the report
        assert main("--k 8 --ell 1 --analysis branch --format json".split()) == 2
        assert capsys.readouterr().err == "error: cannot write stdout: Broken pipe\n"

    def test_closed_stdout_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["--k", "2", "--ell", "1"]) == 2
        assert capsys.readouterr().err == "error: cannot write stdout: stdout is closed\n"

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("analysis", ["lattice", "branch"])
    def test_failure_inside_a_table_writes_nothing(self, monkeypatch, capsys, tmp_path, analysis, to_file):
        k = 6
        if analysis == "lattice":  # the last closed-form cell, (j, w) = (k - 1, k)
            real_norm = cosets.min_norm_data

            def norm(level, j, bits):
                if j == k - 1:
                    raise VerificationError("forced in the lattice table")
                return real_norm(level, j, bits)

            monkeypatch.setattr(cosets, "min_norm_data", norm)
        else:  # the last Virasoro step of the walk
            real_h = branching.vir_h

            def h(m, r, s):
                if m == k - 1:
                    raise VerificationError("forced in the branch table")
                return real_h(m, r, s)

            monkeypatch.setattr(branching, "vir_h", h)
        target = tmp_path / "report.txt"
        target.write_bytes(b"old report\n")
        argv = ["--k", str(k), "--ell", "1", "--analysis", analysis]
        assert main(argv + (["--output", str(target)] if to_file else [])) == 5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: forced in the {analysis} table\n"
        assert target.read_bytes() == b"old report\n"
        assert [path.name for path in tmp_path.iterdir()] == ["report.txt"]


# Census reports of codes the benchmark does not run, recorded before the
# orbit records became constant-size: (arguments, format, bytes, sha256).
CENSUS_DIGESTS = [
    ("--k 3 --ell 5", "text", 933_557, "4e238df8e3febb52003ddaf1ec168ef1d49ff361310d5ec973dded49c5f46947"),
    ("--k 3 --ell 5", "json", 2_164_551, "ccbef455d2f98726695fa013b6bcfcf5c82a7118166647d183c28db537cf8f7e"),
    # fixed points at k = 0 (mod 4)
    ("--k 8 --ell 2 --gen 4,4", "text", 71_282, "d26fd8f6114dcbaf8f233351ecf1c98c8b2f8c3de8d9c2c622017f29171a4a7a"),
    ("--k 8 --ell 2 --gen 4,4", "json", 168_434, "afeb07b8926609c1c919a3d82d29e0859088dc2a7c0936cab9fc435270337c64"),
    # fixed points at k = 2 (mod 4)
    ("--k 6 --ell 3 --gen 3,3,0", "text", 524_917, "fac203af55269045b7cf22ba1f4f7ec274dcc27728eaa96bf6b568fac03cce3a"),
    ("--k 6 --ell 3 --gen 3,3,0", "json", 1_243_991, "e7e8479f8ba6f4ac6757daade168a3ef55318e02271a049df0d3e05c02eb1a6f"),
    # Case B: the census of the even part and the sector pairing
    ("--k 2 --ell 3 --gen 1,1,1", "text", 4_822, "ee42488e01f9a31c3c5658cdb21b981778a7ad4c9705fdb26d2edfd01e046695"),
    ("--k 2 --ell 3 --gen 1,1,1", "json", 10_695, "0e48379b228789d1bc9b074f2fd53690060fdfe90266b8297d8fdb6ce21786ed"),
    # recorded before the fusion classes were computed in closed form: an
    # odd level above 5, fixed points at k = 12, and a Case B code at k = 4
    ("--k 7 --ell 2", "text", 82_727, "31f6e2978b10321abeab5738a352551766b43e3eedd47d2cc85362b74b66857c"),
    ("--k 7 --ell 2", "json", 200_371, "ad7d7495ae312525bd1312b70837bdd9b233da12d8b8be25f806fcff6ed8310d"),
    ("--k 12 --ell 2 --gen 6,6", "text", 330_915, "08a2ecb57504b65e7e1c9b884f68f746cd268fd2cfe56b6b26f8fd2887d9f76b"),
    ("--k 12 --ell 2 --gen 6,6", "json", 787_311, "25ad7944f52795784ce7b952305f365318c3377e51241459ed289f0e1daf08c7"),
    ("--k 4 --ell 3 --gen 1,1,0 --gen 0,2,2", "text", 35_888, "40ac8d13da2fcd85e7aa67ecf643c696802291c73041026c8cb51dfdd02a8136"),
    ("--k 4 --ell 3 --gen 1,1,0 --gen 0,2,2", "json", 83_881, "f9af04371282e431bf62291335fc53b134f2dbb0aab6bdce2c408b74ed5ae662"),
]


@pytest.fixture
def no_dual_enumeration(monkeypatch):
    """`dual_code` fails wherever the census could reach it, and the per-code
    cache of the dual basis starts empty."""

    def unreachable(*args, **kwargs):
        raise AssertionError("the dual code was enumerated")

    monkeypatch.setattr(zkcodes, "dual_code", unreachable)
    monkeypatch.setattr(modules, "dual_code", unreachable)
    modules._dual_words.cache_clear()


@pytest.mark.parametrize(
    "argv, fmt, size, digest", CENSUS_DIGESTS, ids=[f"{a} {f}" for a, f, _, _ in CENSUS_DIGESTS]
)
def test_census_report_bytes_are_pinned(monkeypatch, no_dual_enumeration, argv, fmt, size, digest):
    sink = DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main([*argv.split(), "--analysis", "modules", "--format", fmt]) == 0
    assert (sink.size, sink.sha.hexdigest()) == (size, digest)


NO_DUAL_CODES = {
    "k6-case-b": span([(1, 1, 1)], 6, 3),
    "k4-fixed-points": span([(2, 2, 0, 0), (0, 0, 2, 2)], 4, 4),
    "k5-ell5": span([(1, 2, 0, 0, 0)], 5, 5),
}


@pytest.mark.parametrize("name", NO_DUAL_CODES)
def test_realization_suite_lists_no_dual_word(no_dual_enumeration, name):
    assert verify_realization(NO_DUAL_CODES[name], DEFAULT_ORBIT_CAP).passed


@pytest.mark.parametrize("name", ["k6-case-b", "k4-fixed-points"])
def test_twisted_counts_list_no_dual_word(no_dual_enumeration, name):
    code = NO_DUAL_CODES[name]
    basis = modules.even_part_code(code) if code.case is Case.B else code
    assert modules.count_twisted(basis, (0,) * code.ell) >= 1


# Table reports recorded before the tables were written from their walk
# prefixes and lattice cells: (arguments, format, bytes, sha256).
TABLE_DIGESTS = [
    (
        "--k 7 --ell 1 --analysis lattice --analysis branch --coset 1:1100000",
        "text",
        57_395,
        "39de69aad41210cc1e010705582a71d77896b20f718958bda430cd2a1a116c8c",
    ),
    (
        "--k 7 --ell 1 --analysis lattice --analysis branch --coset 1:1100000",
        "json",
        423_765,
        "82a6bf6456e823ecca12b691f0fde55a6712c0d68859d82c42d442745c3f9ed6",
    ),
    # the lattice of the zero code and the branch of its identity coset
    (
        "--k 6 --ell 1 --gen 0 --analysis lattice --analysis branch",
        "text",
        15_133,
        "4391088b3df8481ef4aea97d662babbb6b658d9f36844603dcfc57d7796bcc36",
    ),
    (
        "--k 6 --ell 1 --gen 0 --analysis lattice --analysis branch",
        "json",
        101_843,
        "46756c81f119255d11a96baf64a17c5586b40a56a083d453a7a4609a7d496731",
    ),
    # a non-identity coset whose prefixes are seven indices deep, recorded
    # before the walk carried each prefix's text
    (
        "--k 8 --ell 1 --analysis branch --coset 1:11010000",
        "text",
        101_677,
        "d45bf50de266a7b295d295f806e916f75aff842e961b6fca1d34386d81c4c54a",
    ),
    (
        "--k 8 --ell 1 --analysis branch --coset 1:11010000",
        "json",
        859_843,
        "b227c55c8ccfad43ec9a9e417e32e878d380570805e7569ec46d5ea2eb007c69",
    ),
]


@pytest.mark.parametrize(
    "argv, fmt, size, digest", TABLE_DIGESTS, ids=[f"{a} {f}" for a, f, _, _ in TABLE_DIGESTS]
)
def test_table_report_bytes_are_pinned(monkeypatch, argv, fmt, size, digest):
    sink = DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main([*argv.split(), "--format", fmt]) == 0
    assert (sink.size, sink.sha.hexdigest()) == (size, digest)
