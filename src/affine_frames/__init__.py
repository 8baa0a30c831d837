"""Exact minimal-degree moving frames for polynomial curves."""

from .bezout import (
    BezoutVector,
    MuBasis,
    bezout_degree_search,
    is_minimal_bezout,
    is_mu_basis,
    minimal_bezout,
    mu_basis,
)
from .completion import (
    Completion,
    CompletionReport,
    minimal_completion,
    nonminimal_completion,
    quillen_suslin,
    verify_completion,
)
from .equivariance import (
    PivotProfile,
    canonical_form,
    canonical_shape_violations,
    equivariant_completion,
    equivariantize,
    linear_section,
    pivot_profile,
    section,
    section_and_canonical,
    shift_section,
)
from .frames import (
    CurveRejection,
    FrameResult,
    moving_frame,
    validate_curve,
    verify_frame,
)
from .groups import AffineElement, GroupElement
from .poly import NEG_INF, Polynomial, poly_gcd
from .sylvester import SylvesterSystem, build_sylvester, sharp
from .vectors import (
    PolyMatrix,
    PolyVector,
    RegularityError,
    RegularVector,
    outer_product,
    require_regular,
)

__all__ = [
    "AffineElement",
    "BezoutVector",
    "Completion",
    "CompletionReport",
    "CurveRejection",
    "FrameResult",
    "GroupElement",
    "MuBasis",
    "NEG_INF",
    "PivotProfile",
    "PolyMatrix",
    "PolyVector",
    "Polynomial",
    "RegularityError",
    "RegularVector",
    "SylvesterSystem",
    "bezout_degree_search",
    "build_sylvester",
    "canonical_form",
    "canonical_shape_violations",
    "equivariant_completion",
    "equivariantize",
    "is_minimal_bezout",
    "is_mu_basis",
    "linear_section",
    "minimal_bezout",
    "minimal_completion",
    "moving_frame",
    "mu_basis",
    "nonminimal_completion",
    "outer_product",
    "pivot_profile",
    "poly_gcd",
    "quillen_suslin",
    "require_regular",
    "section",
    "section_and_canonical",
    "sharp",
    "shift_section",
    "validate_curve",
    "verify_completion",
    "verify_frame",
]

__version__ = "0.1.0"
