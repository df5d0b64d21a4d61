"""Exact zeta and L-functions of flat rank-2 apartment quotients.

The package builds finite quotients of the two rank-2 affine apartments
(simplicial tori and Klein bottles), counts their closed geodesic
walks, half-lattice geodesics and geodesic galleries, computes the
corresponding zeta functions and L-functions in exact rational
arithmetic, and verifies the structural identities tying them together
as exact equalities of cycle products.
"""

from .algebra import (
    CycleProduct,
    IntMatrix,
    NotCycleProduct,
    NotPolynomialWithinBound,
    Poly,
    Series,
    cycle_product_from_traces,
    det_identity_minus_wT,
    series_exp,
    series_log,
)
from .census import (
    CountTable,
    count_closed_galleries,
    count_closed_walks,
    count_geodesic_walks,
    count_semi_closings,
    lambda_set_size,
)
from .corpus import CorpusMember, generate_corpus
from .identities import VerificationReport, VerifyRecord, verify
from .quotient import (
    AffineMap,
    KleinSpec,
    QuotientGroup,
    SpecValidationError,
    TorusSpec,
    build,
    glide_conjugacy_representative,
    normalize_generators,
)
from .rootgeom import HalfVec, ReprData, RootSystem
from .specfile import ParsedSpec, SpecFileError, load_spec_file, parse_spec_text
from .zeta import (
    OrderInsufficientError,
    TransferSystem,
    ZetaBundle,
    build_gallery_system,
    build_semi_system,
    build_walk_system,
    correction_factor,
    l_poly_from_counts,
    l_product_from_counts,
    required_order,
    torus_closed_form,
    zeta_bundle,
    zeta_galleries,
    zeta_semi,
    zeta_walks,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMap",
    "CorpusMember",
    "CountTable",
    "CycleProduct",
    "HalfVec",
    "IntMatrix",
    "KleinSpec",
    "NotCycleProduct",
    "NotPolynomialWithinBound",
    "OrderInsufficientError",
    "ParsedSpec",
    "Poly",
    "QuotientGroup",
    "ReprData",
    "RootSystem",
    "Series",
    "SpecFileError",
    "SpecValidationError",
    "TorusSpec",
    "TransferSystem",
    "VerificationReport",
    "VerifyRecord",
    "ZetaBundle",
    "build",
    "build_gallery_system",
    "build_semi_system",
    "build_walk_system",
    "correction_factor",
    "count_closed_galleries",
    "count_closed_walks",
    "count_geodesic_walks",
    "count_semi_closings",
    "cycle_product_from_traces",
    "det_identity_minus_wT",
    "generate_corpus",
    "glide_conjugacy_representative",
    "l_poly_from_counts",
    "l_product_from_counts",
    "lambda_set_size",
    "load_spec_file",
    "normalize_generators",
    "parse_spec_text",
    "required_order",
    "series_exp",
    "series_log",
    "torus_closed_form",
    "verify",
    "zeta_bundle",
    "zeta_galleries",
    "zeta_semi",
    "zeta_walks",
]
