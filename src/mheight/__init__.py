"""Geometric analog error-correction codes and their m-height profiles.

The m-height of a real linear code is, over all nonzero codewords, the
largest ratio between the top absolute entry and the (m+1)-th largest one.
This package constructs the dual polygonal, dual icosahedral, and dual
dodecahedral generator matrices, computes their m-height profiles by three
mutually checking routes (closed forms, an exact vertex-pool engine, and
fundamental-domain search), and converts heights into outlier-handling
capability statements.
"""

from .capability import CapabilitySpec, check_spec, feasible_pairs, required_ratio
from .closed_form import (
    closed_profile,
    dodecahedral_height,
    icosahedral_height,
    polygonal_height,
)
from .codes import (
    CUSTOM,
    DUAL_DODECAHEDRAL,
    DUAL_ICOSAHEDRAL,
    DUAL_POLYGONAL,
    PHI,
    Codeword,
    Family,
    GeneratorMatrix,
    dual_dodecahedral,
    dual_icosahedral,
    dual_polygonal,
    encode,
    from_columns,
    is_mds,
)
from .errors import (
    CapacityError,
    InvalidParameterError,
    MHeightError,
    NoFiniteRatioError,
    UnsupportedFamilyError,
)
from .heights import ExtendedHeight, MHeightProfile
from .lp import exact_mheight, exact_profile
from .search import (
    ArcDomain,
    MonotonicityReport,
    RankReport,
    TriangleDomain,
    Violation,
    dodecahedral_candidates,
    dodecahedral_domain,
    dodecahedral_rank_check,
    domain_search,
    icosahedral_chain_check,
    icosahedral_domain,
    monotonicity_check,
    polygonal_domain,
    polygonal_order_indices,
    polygonal_rank_index,
)

__version__ = "0.1.0"

__all__ = [
    "ArcDomain", "CapabilitySpec", "CapacityError", "Codeword", "CUSTOM",
    "DUAL_DODECAHEDRAL", "DUAL_ICOSAHEDRAL", "DUAL_POLYGONAL",
    "ExtendedHeight", "Family", "GeneratorMatrix", "InvalidParameterError",
    "MHeightError", "MHeightProfile", "MonotonicityReport",
    "NoFiniteRatioError", "PHI", "RankReport", "TriangleDomain",
    "UnsupportedFamilyError", "Violation", "check_spec", "closed_profile",
    "dodecahedral_candidates", "dodecahedral_domain", "dodecahedral_height",
    "dodecahedral_rank_check", "domain_search", "dual_dodecahedral",
    "dual_icosahedral", "dual_polygonal", "encode", "exact_mheight",
    "exact_profile", "feasible_pairs", "from_columns",
    "icosahedral_chain_check", "icosahedral_domain", "icosahedral_height",
    "is_mds", "monotonicity_check", "polygonal_domain", "polygonal_height",
    "polygonal_order_indices", "polygonal_rank_index", "required_ratio",
]
