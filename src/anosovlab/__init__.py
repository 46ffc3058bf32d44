"""Numerical constructions and desk-scale verification of eigenvalue-gap,
cross-ratio, partial-hyperconvexity and collar statements for linear
representations of free groups."""

from .core_linalg import (
    PartialFlag,
    Subspace,
    direct_sum_defect,
    eig_by_modulus,
    grassmann_distance,
    intersect,
    quotient_project,
    span,
    svd,
    wedge_volume,
)
from .crossratio import gcr, pcr, pcr_quotient
from .groups import (
    Word,
    evaluate,
    is_linked,
    rp1_fixed_points,
    words_of_length,
)
from .representations import (
    Representation,
    SOpqData,
    dual_rep,
    fg_rep,
    fuchsian_locus,
    punctured_torus_reference,
    rep_from_json,
    rep_to_json,
    sopq_E,
    sopq_form,
    sopq_positive,
    sym_power,
)
from .spectral import (
    LengthPair,
    SpectralGaps,
    attracting_space,
    eigenvalue_ratios,
    length_functions,
    singular_gap,
)

__version__ = "0.1.0"
