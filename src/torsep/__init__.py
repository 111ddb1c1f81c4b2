"""torsep: exact separation-property decisions for toric orbit closures.

Given the integer weights of a linear torus action, the package decides
the separation property (SP), the weak separation property (WSP) and the
strong separation property (SSP) for the affine and projective orbit
closures of a general point, constructs a finite binomial generating
system for the defining ideal, cross-validates every verdict with a
brute-force stratum oracle, and emits certificates checkable by plain
arithmetic.
"""

__version__ = "0.1.0"

from .linalg import kernel_lattice, rank, row_hnf
from .lp import ConeMembership, cone_member
from .cones import (
    ConeFace,
    WeightSystem,
    enumerate_faces,
    homogenize,
    is_strictly_convex,
    minimal_face,
    smallest_face,
)
from .verdict import Verdict
from .separation import (
    cone_hypothesis,
    decide,
    decide_affine_sp,
    decide_affine_ssp,
    decide_affine_wsp,
    decide_projective_sp,
    decide_projective_ssp,
    decide_projective_wsp,
)
from .strata import (
    SspWitness,
    Stratum,
    characteristic_pairs,
    oracle_sp,
    oracle_wsp,
    ssp_coordinate_witness,
    strata,
)
from .ideals import (
    Binomial,
    ScanResult,
    VanishingReport,
    binomial_generators,
    sp_violation_scan,
    verify_vanishing,
)
from .binary_forms import (
    BinaryForm,
    SquarefreeDecomposition,
    decide_sp_binary_orbit,
    parse_form,
    squarefree_multiplicity_parts,
)
from .verification import check_verdict, verify_verdict
from .reports import Instance, Report, emit_report, parse_instance

__all__ = [
    "kernel_lattice",
    "rank",
    "row_hnf",
    "ConeMembership",
    "cone_member",
    "ConeFace",
    "WeightSystem",
    "enumerate_faces",
    "homogenize",
    "is_strictly_convex",
    "minimal_face",
    "smallest_face",
    "Verdict",
    "cone_hypothesis",
    "decide",
    "decide_affine_sp",
    "decide_affine_ssp",
    "decide_affine_wsp",
    "decide_projective_sp",
    "decide_projective_ssp",
    "decide_projective_wsp",
    "SspWitness",
    "Stratum",
    "characteristic_pairs",
    "oracle_sp",
    "oracle_wsp",
    "ssp_coordinate_witness",
    "strata",
    "Binomial",
    "ScanResult",
    "VanishingReport",
    "binomial_generators",
    "sp_violation_scan",
    "verify_vanishing",
    "BinaryForm",
    "SquarefreeDecomposition",
    "decide_sp_binary_orbit",
    "parse_form",
    "squarefree_multiplicity_parts",
    "check_verdict",
    "verify_verdict",
    "Instance",
    "Report",
    "emit_report",
    "parse_instance",
]
