"""Exact zeta and L-functions of flat rank-2 apartment quotients.

The package builds finite quotients of the two rank-2 affine apartments
(simplicial tori and Klein bottles), counts their closed geodesic
walks, half-lattice geodesics and geodesic galleries, computes the
corresponding zeta functions and L-functions, rational functions with
integer coefficients, in exact integer arithmetic, and verifies the structural identities tying them together
as exact equalities of cycle products.
"""

from .algebra import CycleProduct, NotPolynomialWithinBound
from .corpus import CorpusMember, generate_corpus
from .identities import VerificationReport, VerifyRecord, verify
from .quotient import (
    KleinSpec,
    QuotientGroup,
    SpecValidationError,
    TorusSpec,
    build,
)
from .rootgeom import ReprData, RootSystem
from .specfile import ParsedSpec, SpecFileError, load_spec_file, parse_spec_text
from .zeta import (
    LPolynomial,
    OrderInsufficientError,
    TransferSystem,
    ZetaBundle,
    build_gallery_system,
    build_semi_system,
    build_walk_system,
    correction_factor,
    l_poly_from_counts,
    required_order,
    zeta_bundle,
)

__version__ = "0.1.0"

__all__ = [
    "CorpusMember",
    "CycleProduct",
    "KleinSpec",
    "LPolynomial",
    "NotPolynomialWithinBound",
    "OrderInsufficientError",
    "ParsedSpec",
    "QuotientGroup",
    "ReprData",
    "RootSystem",
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
    "generate_corpus",
    "l_poly_from_counts",
    "load_spec_file",
    "parse_spec_text",
    "required_order",
    "verify",
    "zeta_bundle",
]
