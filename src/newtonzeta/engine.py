"""Monodromy zeta-functions of deformations and of polynomials on
complete intersections, computed from Newton polytope data.

The result of every computation is a formal product prod (1 - t^m)^e
with integer exponents.  Factors are indexed by strata (coordinate
subspaces) and by primitive covectors; the covector enumeration is the
load-bearing step, so its completeness argument is spelled out at
``candidate_covectors``.  ``_over_strata`` takes each Newton vertex's
support, the bit mask of its nonzero coordinates, once per spec, and
reads each polytope once per stratum I: the vertices whose mask lies in
I's, on the coordinates of I.  That one reading skips, before any hull,
a stratum whose every exponent is 0 by its count of bodies or by a point
body (``volumes._vanishes``), and keys the memo ``_stratum_traces``, which
gives the covectors, the faces at each, the objective's power and the
boundary factor as the stratum's finished traces.  The faces at a
covector alpha go to the frame sum ``volumes._reduced_sum`` as tuples,
on the coordinates of I less the one ``lattice._hyperplane_measure``
deletes, in the standard frame, and divided by the index of alpha's
hyperplane; a boundary factor's bodies go to ``volumes._q_sum`` in Z^|I|.
Face dimensions are ranks of the faces' differences, as their transpose.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .lattice import Covector, LatticeFrame, _dot, _hyperplane_measure, _Value
from .polytope import (
    _MEMO_SIZE,
    LatticePolytope,
    Vec,
    _affine_dim,
    hull,  # not called here; perfbench's tracer test reads engine.hull
)
from .qforms import q_exponent
from .systems import SystemSpec, cone_system
from .volumes import _face_at, _q_sum, _reduced_sum, _sum_normals, _vanishes

__all__ = [
    "ZetaProduct",
    "ContributionTrace",
    "candidate_covectors",
    "zeta_deformation",
    "zeta_polynomial",
    "zeta_polynomial_via_cone",
    "euler_ci_torus",
]


class ZetaProduct(_Value):
    """A formal product prod_m (1 - t^m)^{e_m} in canonical merged form."""

    __slots__ = _fields = ("factors",)

    def __init__(self, factors: Iterable[tuple[int, int]]):
        factors = tuple(sorted(factors))
        for m, e in factors:
            if m < 1:
                raise ValueError("factor powers must be positive integers")
            if e == 0:
                raise ValueError("zero exponents must be dropped")
        if len({m for m, _ in factors}) != len(factors):
            raise ValueError("factors must be merged by power")
        object.__setattr__(self, "factors", factors)

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


class ContributionTrace(_Value):
    """One nonzero factor: which stratum and covector produced it.

    ``alpha`` is None for the stratum boundary factor of the polynomial
    mode, which is indexed by the stratum alone (see zeta_polynomial).
    Index sets are 0-based.
    """

    __slots__ = _fields = ("index_set", "alpha", "m", "exponent", "face_dims")

    def __init__(self, index_set: frozenset[int], alpha: Covector | None, m: int,
                 exponent: int, face_dims: tuple[int, ...]):
        if exponent == 0:
            raise ValueError("traces record nonzero contributions only")
        if m < 1:
            raise ValueError("trace power must be positive")
        self._store(index_set, alpha, m, exponent, face_dims)


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
    bodies = []
    for P in polytopes:
        if P.is_empty:
            raise ValueError("candidate covectors need nonempty polytopes")
        if P.ambient_dim != ambient_dim:
            raise ValueError("polytope dimension does not match ambient")
        bodies.append(_on_stratum(_supports(P), idx))
        if len(bodies[-1]) < len(P.vertices):
            raise ValueError("polytope not contained in the index subspace")
    return [_embed(a, idx, ambient_dim) for a in _sum_normals(bodies, len(idx))]


def _supports(P: LatticePolytope) -> list[tuple[Vec, int]]:
    """P's vertices, each with the bit mask of its nonzero coordinates."""
    return [(v, sum(1 << i for i, c in enumerate(v) if c)) for v in P.raw_vertices()]


def _on_stratum(supports: Sequence[tuple[Vec, int]], idx: Sequence[int]) -> tuple[Vec, ...]:
    """The vertices in the coordinate subspace of I, on the coordinates of I:
    those whose support mask lies in I's.  On the subspace, dropping the
    other coordinates is a lattice bijection."""
    outside = ~sum(1 << i for i in idx)
    return tuple([tuple([v[i] for i in idx]) for v, mask in supports if not mask & outside])


def _embed(a: Vec, idx: Sequence[int], n: int) -> Covector:
    """The covector of Z^n that is a on the coordinates of I and 0 elsewhere."""
    on_i = dict(zip(idx, a))
    return Covector(tuple(on_i.get(i, 0) for i in range(n)))


@lru_cache(maxsize=_MEMO_SIZE)
def _stratum_traces(index_set: frozenset[int], n: int, bodies: tuple[tuple[Vec, ...], ...],
                    sign: int) -> tuple[ContributionTrace, ...]:
    """The finished traces of stratum I: its boundary factor's, and one per
    candidate covector alpha of positive power m and nonzero exponent e of
    the bodies' faces at alpha.  Bodies and alpha are on the coordinates of
    I; each face, where alpha is least, lies in one hyperplane of alpha and
    is measured by ``_hyperplane_measure`` in Z^l, in the standard frame.
    ``sign`` +1 / -1 is a deformation at the origin / at infinity: m is
    sign * alpha_last, e is T_l of the faces.  ``sign`` 0 is the objective,
    which leads the bodies: m is its least value of alpha, e drops its face
    minus keeps it (``q_tilde_exponent``), and the boundary factor comes
    first.  The key holds the raw bodies: m reads where the objective lies.
    """
    idx = sorted(index_set)
    l = len(idx) - 1
    traces = []
    if not sign:
        # Boundary factor: the covector constant on the whole subspace gives
        # (1 - t) to the power of the Euler characteristic of the restricted
        # system on the stratum torus, T_|I| of the bodies in Z^|I| (index 1).
        # The bare covector-product formula omits it, but the cone route
        # provably produces it, and it makes degree(zeta) the fiber Euler
        # characteristic (see the route-equivalence tests).
        e0 = _q_sum(bodies, l + 1)
        if e0:
            traces.append(ContributionTrace(index_set, None, 1, e0,
                                            tuple(map(_affine_dim, bodies))))
    frame = LatticeFrame.standard(l)

    def exponent(faces: list[list[Vec]]) -> int:
        keep = _reduced_sum(faces, frame)
        return keep if sign else _reduced_sum(faces[1:], frame) - keep

    for a in _sum_normals(bodies, l + 1):
        m = sign * a[-1] if sign else min(_dot(a, p) for p in bodies[0])
        if m <= 0:
            continue
        faces = [_face_at(a, pts) for pts in bodies]
        e = _hyperplane_measure(a, faces, exponent)
        if e:
            traces.append(ContributionTrace(index_set, _embed(a, idx, n), m, e,
                                            tuple(map(_affine_dim, faces))))
    return tuple(traces)


def _strata_for(n: int, scope: str, must_contain_last: bool) -> list[frozenset[int]]:
    if scope == "torus":
        return [frozenset(range(n))]
    if scope != "affine":
        raise ValueError(f"unknown scope {scope!r}")
    return [frozenset(c) for size in range(1, n + 1)
            for c in combinations(range(n), size) if not must_contain_last or n - 1 in c]


def _over_strata(spec: SystemSpec, scope: str,
                 sign: int) -> tuple[ZetaProduct, list[ContributionTrace]]:
    """The product of all traces' factors, with the traces in stratum order.

    The support masks of ``spec.newton_polytopes`` are taken once, and
    each polytope is read once per stratum I by ``_on_stratum``; a constraint
    with no vertex there misses I and is dropped.  The objective, if any,
    leads the bodies; if none, I holds the parameter, the last coordinate.
    Every exponent of I is a q-form of its faces, so a stratum adds no
    factor, and is skipped before any hull, when:

    - ``volumes._vanishes`` holds of the surviving constraints in degree
      |I| - 1: k >= |I| of them (each covector exponent has k or k + 1
      bodies in degree |I| - 1, the boundary factor k + 1 in degree |I|),
      or one with one vertex (its face is that point at every covector,
      and it is a body of every exponent);
    - the objective misses I: the stratum contributes 1 (``zeta_polynomial``).
    """
    supports = [_supports(P) for P in spec.newton_polytopes]
    traces: list[ContributionTrace] = []
    for index_set in _strata_for(spec.n, scope, spec.objective is None):
        idx = sorted(index_set)
        read = [_on_stratum(s, idx) for s in supports]
        objective = [read.pop()] if spec.objective is not None else []
        bodies = [pts for pts in read if pts]
        if _vanishes(bodies, len(idx) - 1) or () in objective:
            continue
        traces.extend(_stratum_traces(index_set, spec.n, tuple(objective + bodies), sign))
    total: dict[int, int] = {}
    for t in traces:
        total[t.m] = total.get(t.m, 0) + t.exponent
    return ZetaProduct.from_exponents(total), traces


# ---------------------------------------------------------------------------
# deformation strata
# ---------------------------------------------------------------------------

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
    sign = {"origin": +1, "infinity": -1}.get(mode)
    if sign is None:
        raise ValueError(f"unknown mode {mode!r}")
    return _over_strata(spec, scope, sign)


# ---------------------------------------------------------------------------
# polynomial on a complete intersection
# ---------------------------------------------------------------------------

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
    return _over_strata(spec, scope, 0)


def zeta_polynomial_via_cone(spec: SystemSpec) -> ZetaProduct:
    """Torus zeta of the objective, via the cone construction.

    Replaces the objective by the extra constraint (objective - z_new)
    and computes the deformation zeta in z_new on the torus; this must
    agree factor-by-factor with the direct route, which is the built-in
    cross-validation of the whole pipeline.
    """
    return zeta_deformation(cone_system(spec), mode="origin", scope="torus")[0]


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
