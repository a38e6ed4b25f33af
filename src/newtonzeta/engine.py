"""Monodromy zeta-functions of deformations and of polynomials on
complete intersections, computed from Newton polytope data.

The result of every computation is a formal product prod (1 - t^m)^e
with integer exponents.  Factors are indexed by strata (coordinate
subspaces) and by primitive covectors; the covector enumeration is the
load-bearing step, so its completeness argument is spelled out at
``candidate_covectors``.  Each stratum I is measured in its own
coordinates: the faces at a covector alpha are taken on the coordinates
of I less the one ``lattice._hyperplane_measure`` deletes, measured in
the standard frame, and divided by the index of alpha's hyperplane.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .lattice import (
    Covector,
    IntPoint,
    LatticeFrame,
    _dot,
    _hyperplane_measure,
    _rank,
    orthogonal_line_generators,
)
from .polytope import (
    LatticePolytope,
    Vec,
    _dd,
    _sub,
    hull,  # not called here; perfbench's tracer test reads engine.hull
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
# covector enumeration and the stratum measure
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
    m = len(idx)

    # the sum on the coordinates of I, each partial sum extended from the
    # vertices of its double description
    pts: tuple[Vec, ...] = ((0,) * m,)
    for P in polytopes:
        if P.is_empty:
            raise ValueError("candidate covectors need nonempty polytopes")
        if P.ambient_dim != ambient_dim:
            raise ValueError("polytope dimension does not match ambient")
        on_i = _stratum_coords(P, idx)
        if on_i is None:
            raise ValueError("polytope not contained in the index subspace")
        pts = tuple(sorted({
            tuple(x + y for x, y in zip(pts[i], q))
            for i in _dd(pts, m)[0] for q in on_i
        }))
    verts, facets, _tights = _dd(pts, m)

    def embed(comps: Sequence[int]) -> Covector:
        on_i = dict(zip(idx, comps))
        return Covector(tuple(on_i.get(i, 0) for i in range(ambient_dim)))

    if facets:
        alphas = [embed(a) for a, _b in facets]
    else:
        dirs = [IntPoint(pts[i]) - IntPoint(pts[verts[0]]) for i in verts[1:]]
        try:
            alphas = [embed(b.comps) for b in orthogonal_line_generators(dirs, m)]
        except ValueError:  # dimension below l
            alphas = []
    alphas.sort(key=lambda a: a.comps)
    return alphas


def _stratum_coords(P: LatticePolytope, idx: Sequence[int]) -> list[Vec] | None:
    """P's vertices on the coordinates of I; None when P leaves their subspace.

    On the subspace, dropping the other coordinates is a lattice bijection.
    """
    pts = [tuple(v.coords[i] for i in idx) for v in P.vertices]
    # the dropped coordinates are all zero exactly when the 1-norm is kept
    kept = all(sum(map(abs, v.coords)) == sum(map(abs, p))
               for v, p in zip(P.vertices, pts))
    return pts if kept else None


def _bodies(point_sets: Sequence[Sequence[Vec]], d: int) -> list[LatticePolytope]:
    return [LatticePolytope(tuple(IntPoint(p) for p in pts), d) for pts in point_sets]


def _dims(point_sets: Sequence[Sequence[Vec]]) -> tuple[int, ...]:
    """The affine dimension of each nonempty point set: its differences' rank."""
    return tuple(_rank([_sub(p, pts[0]) for p in pts[1:]]) for pts in point_sets)


def _covector_traces(
    rs: RestrictedSystem,
    bodies: Sequence[LatticePolytope],
    power: Callable[[Covector], int],
    exponent: Callable[[int, list[LatticePolytope], LatticeFrame], int],
) -> list[ContributionTrace]:
    """A trace per candidate covector alpha of positive ``power`` and
    nonzero ``exponent`` of the bodies' faces at alpha, in the lattice of
    {x : x_i = 0 outside I, alpha(x) = 0}.  The bodies are read on the
    coordinates of I once; the face at alpha is the subset where alpha
    takes its minimum, so it lies in that hyperplane of the subspace and
    is measured on the coordinates of I less the one
    ``_hyperplane_measure`` deletes, in one frame of Z^l.
    """
    idx = sorted(rs.index_set)
    l = len(idx) - 1
    frame = LatticeFrame.standard(l)
    on_i = [_stratum_coords(P, idx) for P in bodies]
    traces: list[ContributionTrace] = []
    for alpha in candidate_covectors(bodies, idx, rs.n):
        m = power(alpha)
        if m <= 0:
            continue
        a = [alpha.comps[i] for i in idx]
        lows = [min(_dot(a, p) for p in pts) for pts in on_i]
        faces = [[p for p in pts if _dot(a, p) == low] for pts, low in zip(on_i, lows)]
        e = _hyperplane_measure(
            a, faces, lambda projected: exponent(l, _bodies(projected, l), frame))
        if e:
            traces.append(ContributionTrace(rs.index_set, alpha, m, e, _dims(faces)))
    return traces


# ---------------------------------------------------------------------------
# deformation strata
# ---------------------------------------------------------------------------

def _deformation_stratum(rs: RestrictedSystem, sign: int) -> list[ContributionTrace]:
    return _covector_traces(rs, rs.polytopes,
                            lambda alpha: sign * alpha.comps[rs.n - 1], q_exponent)


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

def _polynomial_stratum(rs: RestrictedSystem) -> list[ContributionTrace]:
    idx = sorted(rs.index_set)
    obj = rs.objective_restriction
    assert obj is not None, "polynomial stratum needs an objective restriction"
    if obj.is_empty:
        return []

    # Boundary factor of the stratum: the covector constant on the whole
    # subspace contributes (1 - t) to the power of the Euler
    # characteristic of the full restricted system on the stratum torus.
    # The bare covector-product formula omits it, but the cone route
    # provably produces it, and it is what makes degree(zeta) equal the
    # fiber Euler characteristic; see the route-equivalence tests.
    bodies = [obj, *rs.polytopes]
    on_i = [_stratum_coords(b, idx) for b in bodies]
    assert None not in on_i, "body is off the stratum's subspace"
    e0 = q_exponent(len(idx), _bodies(on_i, len(idx)), LatticeFrame.standard(len(idx)))
    traces = [ContributionTrace(rs.index_set, None, 1, e0, _dims(on_i))] if e0 else []
    return traces + _covector_traces(
        rs, bodies, lambda alpha: support_min(obj, alpha),
        lambda l, fs, frame: q_tilde_exponent(l, fs[0], fs[1:], frame),
    )


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
    return q_exponent(n, bodies, LatticeFrame.standard(n))
