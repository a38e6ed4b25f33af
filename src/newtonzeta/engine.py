"""Monodromy zeta-functions of deformations and of polynomials on
complete intersections, computed from Newton polytope data.

The result of every computation is a formal product prod (1 - t^m)^e
with integer exponents.  Factors are indexed by strata (coordinate
subspaces) and by primitive covectors; the covector enumeration is the
load-bearing step, so its completeness argument is spelled out at
``candidate_covectors``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .lattice import (
    Covector,
    IntPoint,
    LatticeFrame,
    _int_kernel,
    orthogonal_line_generators,
)
from .polytope import (
    LatticePolytope,
    dim,
    face,
    facet_normals,
    hull,  # not called here; perfbench's tracer test reads engine.hull
    minkowski_sum,
    support_min,
)
from .qforms import q_exponent, q_tilde_exponent
from .systems import (
    RestrictedSystem,
    SystemSpec,
    cone_system,
    restrict_system,
)

__all__ = [
    "ZetaProduct",
    "ContributionTrace",
    "candidate_covectors",
    "zeta_deformation",
    "zeta_polynomial",
    "zeta_polynomial_via_cone",
    "euler_ci_torus",
]


@dataclass(frozen=True)
class ZetaProduct:
    """A formal product prod_m (1 - t^m)^{e_m} in canonical merged form."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(sorted(self.factors)))
        for m, e in self.factors:
            if m < 1:
                raise ValueError("factor powers must be positive integers")
            if e == 0:
                raise ValueError("zero exponents must be dropped")
        if len({m for m, _ in self.factors}) != len(self.factors):
            raise ValueError("factors must be merged by power")

    @classmethod
    def one(cls) -> "ZetaProduct":
        return cls(())

    @classmethod
    def from_exponents(cls, exponents: dict[int, int]) -> "ZetaProduct":
        return cls(tuple((m, e) for m, e in sorted(exponents.items()) if e != 0))

    def exponents(self) -> dict[int, int]:
        return dict(self.factors)

    def __mul__(self, other: "ZetaProduct") -> "ZetaProduct":
        merged = self.exponents()
        for m, e in other.factors:
            merged[m] = merged.get(m, 0) + e
        return ZetaProduct.from_exponents(merged)

    @property
    def is_one(self) -> bool:
        return not self.factors

    def degree(self) -> int:
        """Degree as a rational function of t: sum of m * e."""
        return sum(m * e for m, e in self.factors)

    def pretty(self) -> str:
        if not self.factors:
            return "1"
        pieces = []
        for m, e in self.factors:
            base = "(1-t)" if m == 1 else f"(1-t^{m})"
            pieces.append(base if e == 1 else f"{base}^{e}")
        return "*".join(pieces)


@dataclass(frozen=True)
class ContributionTrace:
    """One nonzero factor: which stratum and covector produced it.

    ``alpha`` is None for the stratum boundary factor of the polynomial
    mode, which is indexed by the stratum alone (see zeta_polynomial).
    Index sets are 0-based.
    """

    index_set: frozenset[int]
    alpha: Covector | None
    m: int
    exponent: int
    face_dims: tuple[int, ...]

    def __post_init__(self):
        if self.exponent == 0:
            raise ValueError("traces record nonzero contributions only")
        if self.m < 1:
            raise ValueError("trace power must be positive")


# ---------------------------------------------------------------------------
# covector enumeration
# ---------------------------------------------------------------------------

def candidate_covectors(
    polytopes: Sequence[LatticePolytope],
    index_set: Iterable[int],
    ambient_dim: int,
) -> list[Covector]:
    """All primitive covectors that can carry a nonzero stratum factor.

    Let l = |I| - 1 and P the Minkowski sum of the given polytopes inside
    the coordinate subspace of I (the origin for an empty list).  A
    covector contributes only through l-dimensional mixed volumes of the
    faces it cuts, and those faces sum to the face of P at the covector,
    which lies in an l-dimensional affine slice of the subspace; a
    nonzero exponent therefore forces that face of P to have dimension
    exactly l.  Faces of dimension l arise in exactly two ways:

    - P is full-dimensional in the subspace: the l-faces are the facets,
      one primitive inner normal each;
    - P is itself l-dimensional: the whole of P is the face, cut by the
      two opposite generators of the line of covectors constant on it.

    When P has dimension below l no covector qualifies.  The returned
    list is therefore finite and complete.
    """
    idx = sorted(set(index_set))
    if not idx:
        raise ValueError("index set must be nonempty")
    if any(i < 0 or i >= ambient_dim for i in idx):
        raise ValueError("index set out of range")
    l = len(idx) - 1
    pos = {i: t for t, i in enumerate(idx)}

    total: LatticePolytope | None = None
    for P in polytopes:
        if P.is_empty:
            raise ValueError("candidate covectors need nonempty polytopes")
        if P.ambient_dim != ambient_dim:
            raise ValueError("polytope dimension does not match ambient")
        for v in P.vertices:
            if any(c != 0 for i, c in enumerate(v.coords) if i not in pos):
                raise ValueError("polytope not contained in the index subspace")
        total = P if total is None else minkowski_sum(total, P)
    if total is None:
        total = LatticePolytope.point(IntPoint((0,) * ambient_dim))

    # P lies in the subspace of I, so dropping the other coordinates is a
    # lattice bijection and keeps the vertex set
    reduced = LatticePolytope(
        tuple(IntPoint(tuple(v.coords[i] for i in idx)) for v in total.vertices),
        len(idx),
    )
    d = dim(reduced)

    def embed(comps: tuple[int, ...]) -> Covector:
        full = [0] * ambient_dim
        for t, i in enumerate(idx):
            full[i] = comps[t]
        return Covector(tuple(full))

    alphas: list[Covector]
    if d == len(idx):
        alphas = [embed(rec.normal.comps) for rec in facet_normals(reduced)]
    elif d == l:
        verts = reduced.vertices
        dirs = [v - verts[0] for v in verts[1:]]
        beta, neg = orthogonal_line_generators(dirs, len(idx))
        alphas = [embed(beta.comps), embed(neg.comps)]
    else:
        alphas = []

    alphas.sort(key=lambda a: a.comps)
    return alphas


def _stratum_frame(
    index_set: frozenset[int], alpha: Covector, ambient_dim: int
) -> LatticeFrame:
    """Saturated frame of {x : x_i = 0 outside I, alpha(x) = 0}, rank |I|-1."""
    rows = [
        tuple(1 if j == i else 0 for j in range(ambient_dim))
        for i in range(ambient_dim)
        if i not in index_set
    ]
    rows.append(alpha.comps)
    basis = _int_kernel(rows, ambient_dim)
    frame = LatticeFrame(
        IntPoint((0,) * ambient_dim),
        tuple(IntPoint(b) for b in basis),
        ambient_dim,
    )
    assert frame.rank == len(index_set) - 1, "stratum frame has wrong rank"
    return frame


def _subspace_frame(index_set: frozenset[int], ambient_dim: int) -> LatticeFrame:
    basis = tuple(
        IntPoint(tuple(1 if j == i else 0 for j in range(ambient_dim)))
        for i in sorted(index_set)
    )
    return LatticeFrame(IntPoint((0,) * ambient_dim), basis, ambient_dim)


# ---------------------------------------------------------------------------
# deformation strata
# ---------------------------------------------------------------------------

def _deformation_stratum(
    rs: RestrictedSystem, sign: int
) -> list[ContributionTrace]:
    idx = rs.index_set
    n = rs.n
    l = len(idx) - 1
    traces: list[ContributionTrace] = []
    for alpha in candidate_covectors(rs.polytopes, idx, n):
        a_last = alpha.comps[n - 1]
        if sign * a_last <= 0:
            continue
        m = sign * a_last
        faces = [face(P, alpha).face for P in rs.polytopes]
        frame = _stratum_frame(idx, alpha, n)
        e = q_exponent(l, faces, frame)
        if e == 0:
            continue
        traces.append(ContributionTrace(
            index_set=idx,
            alpha=alpha,
            m=m,
            exponent=e,
            face_dims=tuple(dim(f) for f in faces),
        ))
    return traces


def _strata_for(n: int, scope: str, must_contain_last: bool) -> list[frozenset[int]]:
    if scope == "torus":
        return [frozenset(range(n))]
    if scope != "affine":
        raise ValueError(f"unknown scope {scope!r}")
    out = []
    indices = list(range(n))
    for size in range(1, n + 1):
        for combo in combinations(indices, size):
            if must_contain_last and (n - 1) not in combo:
                continue
            out.append(frozenset(combo))
    return out


def _over_strata(
    spec: SystemSpec,
    scope: str,
    stratum: Callable[[RestrictedSystem], list[ContributionTrace]],
    must_contain_last: bool,
) -> tuple[ZetaProduct, list[ContributionTrace]]:
    """The product of all traces' factors, with the traces in stratum order."""
    traces: list[ContributionTrace] = []
    for idx in _strata_for(spec.n, scope, must_contain_last):
        traces.extend(stratum(restrict_system(spec, idx)))
    total: dict[int, int] = {}
    for t in traces:
        total[t.m] = total.get(t.m, 0) + t.exponent
    return ZetaProduct.from_exponents(total), traces


def zeta_deformation(
    spec: SystemSpec,
    mode: str = "origin",
    scope: str = "affine",
) -> tuple[ZetaProduct, list[ContributionTrace]]:
    """Zeta-function of the deformation along the last variable.

    ``mode`` picks the monodromy at the origin or at infinity of the
    parameter; ``scope`` is the torus part alone or the whole affine
    space (the product over all strata containing the parameter axis).
    """
    if spec.objective is not None:
        raise ValueError("zeta_deformation requires a deformation system")
    if mode == "origin":
        sign = +1
    elif mode == "infinity":
        sign = -1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _over_strata(spec, scope, lambda rs: _deformation_stratum(rs, sign),
                        must_contain_last=True)


# ---------------------------------------------------------------------------
# polynomial on a complete intersection
# ---------------------------------------------------------------------------

def _polynomial_stratum(
    rs: RestrictedSystem,
) -> list[ContributionTrace]:
    idx = rs.index_set
    n = rs.n
    l = len(idx) - 1
    obj = rs.objective_restriction
    assert obj is not None, "polynomial stratum needs an objective restriction"
    if obj.is_empty:
        return []
    traces: list[ContributionTrace] = []

    # Boundary factor of the stratum: the covector constant on the whole
    # subspace contributes (1 - t) to the power of the Euler
    # characteristic of the full restricted system on the stratum torus.
    # The bare covector-product formula omits it, but the cone route
    # provably produces it, and it is what makes degree(zeta) equal the
    # fiber Euler characteristic; see the route-equivalence tests.
    bodies = [obj, *rs.polytopes]
    e0 = q_exponent(len(idx), bodies, _subspace_frame(idx, n))
    if e0 != 0:
        traces.append(ContributionTrace(
            index_set=idx,
            alpha=None,
            m=1,
            exponent=e0,
            face_dims=tuple(dim(b) for b in bodies),
        ))

    for alpha in candidate_covectors(bodies, idx, n):
        m0 = support_min(obj, alpha)
        if m0 <= 0:
            continue
        f0 = face(obj, alpha).face
        faces = [face(P, alpha).face for P in rs.polytopes]
        frame = _stratum_frame(idx, alpha, n)
        e = q_tilde_exponent(l, f0, faces, frame)
        if e == 0:
            continue
        traces.append(ContributionTrace(
            index_set=idx,
            alpha=alpha,
            m=m0,
            exponent=e,
            face_dims=tuple(dim(f) for f in [f0, *faces]),
        ))
    return traces


def zeta_polynomial(
    spec: SystemSpec,
    scope: str = "affine",
) -> tuple[ZetaProduct, list[ContributionTrace]]:
    """Zeta-function at the origin of the objective on the intersection.

    ``scope`` restricts to the open torus or stratifies the whole affine
    space (the product over all nonempty index sets).  Strata whose
    restricted objective is empty contribute 1.
    """
    if spec.objective is None:
        raise ValueError("zeta_polynomial requires an objective")
    return _over_strata(spec, scope, _polynomial_stratum, must_contain_last=False)


def zeta_polynomial_via_cone(spec: SystemSpec) -> ZetaProduct:
    """Torus zeta of the objective, via the cone construction.

    Replaces the objective by the extra constraint (objective - z_new)
    and computes the deformation zeta in z_new on the torus; this must
    agree factor-by-factor with the direct route, which is the built-in
    cross-validation of the whole pipeline.
    """
    lifted = cone_system(spec)
    product, _ = zeta_deformation(lifted, mode="origin", scope="torus")
    return product


# ---------------------------------------------------------------------------
# Euler characteristic oracle
# ---------------------------------------------------------------------------

def euler_ci_torus(polytopes: Sequence[LatticePolytope], n: int) -> int:
    """Euler characteristic of a nondegenerate complete intersection in
    the n-torus, from the Newton polytopes of its equations.

    Any empty polytope means an equation with empty support on the
    stratum, hence an empty intersection: returns 0.
    """
    bodies = list(polytopes)
    if len(bodies) > n:
        raise ValueError("more equations than torus dimension")
    if any(P.is_empty for P in bodies):
        return 0
    return q_exponent(n, bodies, LatticeFrame.standard(n))
