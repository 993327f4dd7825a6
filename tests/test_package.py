"""The package's public surface, and the submodules each CLI job loads.

`import pfkit` loads no submodule: each public name imports its submodule
on first use, and the CLI imports an analysis module only when its job runs
that analysis.
"""

import os
import subprocess
import sys
import typing
from importlib import import_module
from pathlib import Path

import pytest

import pfkit

ROOT = Path(__file__).resolve().parent.parent

# Every name `pfkit` exported before its submodules were loaded lazily:
# public name -> (submodule, attribute).  This list is the oracle; it is
# written out here, not read from the package.
PUBLIC = {
    **{
        name: ("branching", name)
        for name in (
            "BranchComponent", "VirasoroLabel", "branch", "branch_tail",
            "locate_pf", "vir_c", "vir_canonicalize", "vir_h",
        )
    },
    **{
        name: ("cosets", name)
        for name in (
            "CodeLattice", "CosetLabel", "LatticeVector", "ProductCoset",
            "canonicalize", "build_code_lattice", "coset_add", "coset_neg",
            "coset_of_vector", "dual_membership", "identity_label", "min_norm",
            "min_norm_data", "min_norm_oracle", "minimizer_count", "pairing",
            "representative", "vector",
        )
    },
    "coset_labels": ("cosets", "all_labels"),
    **{
        name: ("errors", name)
        for name in (
            "CapExceededError", "InvalidInputError", "PfkitError",
            "UnsupportedCodeError", "VerificationError",
        )
    },
    **{
        name: ("modules", name)
        for name in (
            "CaseBRecord", "Character", "InducedReport", "IrrLabel",
            "OrbitRecord", "Regime", "Verdict", "all_irr_labels",
            "caseB_modules", "character_of", "characters", "sc_ext_weight",
            "count_twisted", "even_part_code", "b_ext", "fuse",
            "induced_decomposition", "orbits", "realize", "stabilizer",
            "tensor_weight",
        )
    },
    **{
        name: ("parafermion", name)
        for name in (
            "PfLabel", "SimpleCurrent", "central_charge", "irr_count", "pf_b",
            "pf_canonicalize", "pf_fixed", "pf_weight", "sc_fuse", "sc_label",
            "sc_weight", "theta_act", "vacuum",
        )
    },
    "pf_labels": ("parafermion", "all_labels"),
    **{
        name: ("report", name)
        for name in ("JobSpec", "run", "to_json", "to_text", "verify_passed")
    },
    **{
        name: ("zkcodes", name)
        for name in (
            "BinaryCode", "Case", "Code", "Codeword", "binary_reduce",
            "classify_code", "code_from_words", "dual_code", "inner",
            "radical_data", "span", "word_add",
        )
    },
}

SUBMODULES = (
    "branching", "cli", "cosets", "errors", "modules", "parafermion",
    "report", "verify", "zkcodes",
)

CLASSIFY = {"cli", "errors", "parafermion", "report", "zkcodes"}

# (argv, exit code, the pfkit submodules loaded once `cli.main` returns)
JOBS = [
    ("--k 2 --ell 1", 0, CLASSIFY),
    ("--k 2 --ell 0", 2, CLASSIFY),
    ("--k 10 --ell 1 --analysis verify", 4, CLASSIFY),
    ("--k 5 --ell 2 --gen 1,2 --analysis modules", 0, CLASSIFY | {"census", "modules"}),
    ("--k 6 --ell 3 --gen 1,1,1 --analysis modules", 0, CLASSIFY | {"census", "modules"}),
    ("--k 5 --ell 6 --analysis modules", 4, CLASSIFY | {"census", "modules"}),
    ("--k 4 --ell 1 --analysis branch", 0, CLASSIFY | {"branching", "cosets", "tables"}),
    ("--k 4 --ell 1 --analysis lattice", 0, CLASSIFY | {"cosets", "tables"}),
    ("--k 4 --ell 1 --analysis verify", 0, set(SUBMODULES) - {"branching"}),
]

# Runs `cli.main` on its arguments with stdout and stderr captured, then
# prints the exit code and the pfkit submodules loaded.
MAIN_CHILD = """
import contextlib, io, sys
import pfkit.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = pfkit.cli.main(sys.argv[1:])
print(code, *sorted(name for name in sys.modules if name.startswith("pfkit")))
"""


def run_child(*args) -> str:
    """The stdout of a fresh `python *args`, with the source tree on its path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_the_oracle_holds_every_name():
    assert len(PUBLIC) == 84


@pytest.mark.parametrize("argv, code, loaded", JOBS, ids=[job[0] for job in JOBS])
def test_a_cli_job_loads_only_its_analysis_modules(argv, code, loaded):
    words = run_child("-c", MAIN_CHILD, *argv.split()).split()
    assert int(words[0]) == code
    assert words[1:] == sorted({"pfkit"} | {f"pfkit.{name}" for name in loaded})


def test_a_bare_import_loads_no_submodule():
    out = run_child("-c", "import sys, pfkit; print(*sorted(n for n in sys.modules if n.startswith('pfkit')))")
    assert out.split() == ["pfkit"]


def test_submodules_resolve_after_a_bare_import():
    check = "import sys, pfkit; print(all(getattr(pfkit, n) is sys.modules['pfkit.' + n] for n in sys.argv[1:]))"
    assert run_child("-c", check, *SUBMODULES) == "True\n"


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_each_public_name_is_its_submodule_attribute(name):
    module, attr = PUBLIC[name]
    assert getattr(pfkit, name) is getattr(import_module(f"pfkit.{module}"), attr)
    assert name in dir(pfkit)
    assert name in pfkit.__all__


def test_the_version_is_exported():
    assert pfkit.__version__ == "0.1.0"
    assert "__version__" in dir(pfkit)
    assert "__version__" in pfkit.__all__


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from pfkit import *", namespace)
    for name in [*PUBLIC, "__version__"]:
        assert namespace[name] is getattr(pfkit, name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        pfkit.nonexistent
    assert not hasattr(pfkit, "all_labels")


def test_realize_type_hints_resolve():
    # `modules` names ProductCoset only for type checkers, so that the census
    # never loads `cosets`: the hints resolve with the cosets namespace
    hints = typing.get_type_hints(pfkit.modules.realize, localns=vars(pfkit.cosets))
    assert hints == {
        "x": pfkit.IrrLabel,
        "code": pfkit.Code,
        "return": tuple[pfkit.ProductCoset, bool],
    }
