"""Exact invariants of parafermion code extensions.

The public surface, bottom of the stack first: additive codes over Z_k and
their classification (`zkcodes`), coset arithmetic in the dual of the
doubled A-type root lattice with exact minimal norms (`cosets`), parafermion
label data (`parafermion`), Virasoro branching tables (`branching`), the
module census of the extension (`modules`), and deterministic job reports
(`report`, `cli`).

Each submodule is imported on first use of one of its names (PEP 562), so
`import pfkit` alone loads none of them.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names it exports here; "alias=name" renames on the way
_EXPORTS = {
    "branching": """BranchComponent VirasoroLabel branch branch_tail locate_pf
        vir_c vir_canonicalize vir_h""",
    "cosets": """CodeLattice CosetLabel LatticeVector ProductCoset
        coset_labels=all_labels canonicalize build_code_lattice coset_add
        coset_neg coset_of_vector dual_membership identity_label min_norm
        min_norm_data min_norm_oracle minimizer_count pairing representative
        vector""",
    "errors": """CapExceededError InvalidInputError PfkitError
        UnsupportedCodeError VerificationError""",
    "modules": """CaseBRecord Character InducedReport IrrLabel OrbitRecord
        Regime Verdict all_irr_labels caseB_modules character_of characters
        sc_ext_weight count_twisted even_part_code b_ext fuse
        induced_decomposition orbits realize stabilizer tensor_weight""",
    "parafermion": """PfLabel SimpleCurrent pf_labels=all_labels
        central_charge irr_count pf_b pf_canonicalize pf_fixed pf_weight
        sc_fuse sc_label sc_weight theta_act vacuum""",
    "report": "JobSpec run to_json to_text verify_passed",
    "zkcodes": """BinaryCode Case Code Codeword binary_reduce classify_code
        code_from_words dual_code inner radical_data span word_add""",
}
_SUBMODULES = (*_EXPORTS, "cli", "verify")
# public name -> (submodule, attribute)
_ORIGIN = {
    public: (module, name or public)
    for module, names in _EXPORTS.items()
    for public, _, name in (entry.partition("=") for entry in names.split())
}

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name: str):
    if name in _ORIGIN:
        module, attr = _ORIGIN[name]
        value = getattr(import_module(f".{module}", __name__), attr)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
