"""Exact invariants of parafermion code extensions.

The public surface, bottom of the stack first: additive codes over Z_k and
their classification (`zkcodes`), coset arithmetic in the dual of the
doubled A-type root lattice with exact minimal norms (`cosets`), parafermion
label data (`parafermion`), Virasoro branching tables (`branching`), the
module census of the extension (`modules`), and deterministic job reports
(`report`, `cli`).
"""

from .branching import (
    BranchComponent,
    VirasoroLabel,
    branch,
    branch_tail,
    locate_pf,
    vir_c,
    vir_canonicalize,
    vir_h,
)
from .cosets import (
    CodeLattice,
    CosetLabel,
    LatticeVector,
    ProductCoset,
    all_labels as coset_labels,
    canonicalize,
    build_code_lattice,
    coset_add,
    coset_neg,
    coset_of_vector,
    dual_membership,
    identity_label,
    min_norm,
    min_norm_data,
    min_norm_oracle,
    minimizer_count,
    pairing,
    representative,
    vector,
)
from .errors import (
    CapExceededError,
    InvalidInputError,
    PfkitError,
    UnsupportedCodeError,
    VerificationError,
)
from .modules import (
    CaseBRecord,
    Character,
    InducedReport,
    IrrLabel,
    OrbitRecord,
    Regime,
    Verdict,
    all_irr_labels,
    caseB_modules,
    character_of,
    characters,
    sc_ext_weight,
    count_twisted,
    even_part_code,
    b_ext,
    fuse,
    induced_decomposition,
    orbits,
    realize,
    stabilizer,
    tensor_weight,
)
from .parafermion import (
    PfLabel,
    SimpleCurrent,
    all_labels as pf_labels,
    central_charge,
    irr_count,
    pf_b,
    pf_canonicalize,
    pf_fixed,
    pf_weight,
    sc_fuse,
    sc_label,
    sc_weight,
    theta_act,
    vacuum,
)
from .report import JobSpec, run, to_json, to_text, verify_passed
from .zkcodes import (
    BinaryCode,
    Case,
    Code,
    Codeword,
    binary_reduce,
    classify_code,
    code_from_words,
    dual_code,
    inner,
    radical_data,
    span,
    word_add,
)

__version__ = "0.1.0"
