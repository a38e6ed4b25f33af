"""Exact monodromy zeta-functions from Newton polytopes.

The package computes, in exact integer/rational arithmetic, the
monodromy zeta-function of a one-parameter polynomial deformation of a
complete intersection (at the origin and at infinity of the parameter)
and of a polynomial restricted to a complete intersection, directly
from the Newton polytopes of the input.  Lattice-normalized mixed
volumes, an independent lattice-point-counting volume oracle, the cone
construction, and Euler-characteristic identities provide built-in
cross-validation.
"""

from .lattice import (
    Covector,
    IntPoint,
    LatticeFrame,
    orthogonal_line_generators,
    primitive_part,
    saturated_basis,
)
from .polytope import (
    FaceRecord,
    LatticePolytope,
    dim,
    face,
    facet_normals,
    hull,
    minkowski_sum,
    restrict_to_index_set,
    support_min,
)
from .volumes import (
    lattice_point_volume_oracle,
    lattice_volume,
    mixed_volume_of,
)
from .qforms import q_exponent, q_tilde_exponent
from .systems import (
    ParseError,
    PolynomialInput,
    RestrictedSystem,
    SystemSpec,
    cone_system,
    fiber_polytopes,
    format_polynomial,
    newton_polytope,
    parse_polynomial,
    restrict_system,
)
from .engine import (
    ContributionTrace,
    ZetaProduct,
    candidate_covectors,
    euler_ci_torus,
    zeta_deformation,
    zeta_polynomial,
    zeta_polynomial_via_cone,
)

__version__ = "0.1.0"

__all__ = [
    "Covector",
    "IntPoint",
    "LatticeFrame",
    "orthogonal_line_generators",
    "primitive_part",
    "saturated_basis",
    "FaceRecord",
    "LatticePolytope",
    "dim",
    "face",
    "facet_normals",
    "hull",
    "minkowski_sum",
    "restrict_to_index_set",
    "support_min",
    "lattice_point_volume_oracle",
    "lattice_volume",
    "mixed_volume_of",
    "q_exponent",
    "q_tilde_exponent",
    "ParseError",
    "PolynomialInput",
    "RestrictedSystem",
    "SystemSpec",
    "cone_system",
    "fiber_polytopes",
    "format_polynomial",
    "newton_polytope",
    "parse_polynomial",
    "restrict_system",
    "ContributionTrace",
    "ZetaProduct",
    "candidate_covectors",
    "euler_ci_torus",
    "zeta_deformation",
    "zeta_polynomial",
    "zeta_polynomial_via_cone",
]
