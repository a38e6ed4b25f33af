"""Lattice-normalized volumes and mixed volumes of lattice polytopes.

Volumes are normalized to the lattice of a saturated frame, and
measured by coordinate projection: a body's differences are kept on the
frame's ``coords``, where the frame lattice has index ``frame.index``,
so each volume, mixed volume and exponent (the projection is linear and
commutes with Minkowski sums) is divided by it.  A facet is measured by
``lattice._hyperplane_measure``: delete the coordinate j of smallest
nonzero |a_j| of its primitive normal a, and divide the projection's
(l-1)! measure by |a_j|, the index of the projected hyperplane lattice.

The q-exponents of ``qforms`` are (-1)^(l-k) sum_a l! MV(F^a) over the
compositions a >= 1 of l, body F_i of k bodies taken a_i times.
``_cayley_sum_of`` reads the whole sum off one regular triangulation of
the Cayley polytope (the Cayley trick: Huber-Sturmfels, Math. Comp. 64
(1995); Huber-Rambau-Santos, JEMS 2 (2000)).  The Cayley points (p, e_i),
with e_1 = 0 and e_i unit vectors, lie in Z^(l+k-1); each gets a
generic integer height, and the lower facets of the lifted set are
simplices, which project to the cells of a fine mixed subdivision of
F_1 + ... + F_k.  A cell with a_i + 1 points from body i spans l
edges, and adds |det E| of the edge rows to l! MV(F^a); so the sum is
(-1)^(l-k) times sum |det E| over the cells in which every body has two
points or more.  The heights come from ``random.Random`` seeded by the
canonical input, so a run is deterministic; a lift is generic when its
lower facets have l + k vertices, and the value does not depend on it.

Mixed volumes, the case k = l, come from Minkowski's mixed-area
recursion (Schneider, Convex Bodies: The Brunn-Minkowski Theory, 5.1):
with P one body and Q the sum of the other l - 1, l! MV is the sum over
the facets a.x >= b of Q (a primitive) of -min_P a times the (l-1)! MV
of the other bodies' faces at a, in the hyperplane lattice of a
(``_mixed_sum_of``).  One sum is built, of l - 1 bodies, where a
polarization hulls and measures all 2^l - 1 subset sums, and only mixed
terms are measured, where the Cayley route triangulates every cell of
the Cayley polytope (four 4-boxes lift to about 710 lower cells, 16-18
of them mixed).  A volume is the mixed volume of l copies of one body,
and the recursion then reads l! Vol_l as a sum of lattice pyramids over
its facets, with apex the origin (Lasserre's facet recursion).
``_reduced_sum`` is the one place that decides the zero cases and the
route, for ``lattice_volume``, ``mixed_volume_of``, ``qforms`` and the
engine's faces, which it takes as tuples.
A lattice-point counting oracle (dilate, count, interpolate) provides an
independent route to the projected volumes for cross-validation.

The memos are ``functools.lru_cache`` on canonical tuples, each bounded
by ``polytope._MEMO_SIZE``.  Each measured body runs one double
description: ``polytope._dd`` of its raw Minkowski points gives both
the vertices that extend it and the facets that measure it; a lifted
Cayley set, seen once, bypasses that memo.  In ``_cayley_sum_of`` one
reduction gives the rank, and for a simplicial Cayley set also the
value; ``_mixed_sum_of`` tests the rank only when its sum has no facets.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, prod
from operator import add
from typing import Iterator, Sequence

from .lattice import (LatticeFrame, _column_reduce, _dot, _hyperplane_measure,
                      _span_coords)
from .polytope import _MEMO_SIZE, LatticePolytope, Vec, _dd, _sub

__all__ = [
    "lattice_volume",
    "mixed_volume_of",
    "lattice_point_volume_oracle",
]

# heights of the lifted Cayley points are drawn from [0, _HEIGHTS)
_HEIGHTS = 1 << 20


# ---------------------------------------------------------------------------
# frame reduction
# ---------------------------------------------------------------------------

def _reduce_to_frame(P: LatticePolytope, frame: LatticeFrame) -> list[Vec]:
    """Differences from P's first vertex, on the frame's ``coords``.

    Only the direction space matters for volumes, so any translation is
    allowed; a polytope whose directions escape the span is rejected.
    """
    if P.ambient_dim != frame.ambient_dim:
        raise ValueError("polytope dimension does not match frame")
    v0 = P.vertices[0].coords
    diffs = [_sub(v.coords, v0) for v in P.vertices]
    if any(_dot(a, d) for a in frame.normals for d in diffs):
        raise ValueError("polytope outside frame span")
    return [tuple(d[j] for j in frame.coords) for d in diffs]


def _canonical_pts(pts: Sequence[Vec]) -> tuple[Vec, ...]:
    """Sorted, deduplicated, translated so the lexicographic min is 0."""
    uniq = sorted(set(pts))
    base = uniq[0]
    return tuple(_sub(p, base) for p in uniq)


def _minkowski_points(bodies: Sequence[Sequence[Vec]], d: int) -> tuple[Vec, ...]:
    """Canonical points of the sum of point sets in Z^d (the origin for
    none), each partial sum extended from the vertices of its ``_dd``."""
    pts = ((0,) * d,)
    for body in bodies:
        pts = _canonical_pts([tuple(map(add, pts[i], q))
                              for i in _dd(pts, d)[0] for q in body])
    return pts


def _face_at(a: Vec, pts: Sequence[Vec]) -> list[Vec]:
    """The points where the covector a is least."""
    heights = [_dot(a, p) for p in pts]
    low = min(heights)
    return [p for p, h in zip(pts, heights) if h == low]


# ---------------------------------------------------------------------------
# public volume operations
# ---------------------------------------------------------------------------

def lattice_volume(P: LatticePolytope, frame: LatticeFrame) -> Fraction:
    """Normalized l-dimensional volume of P in the frame (l = frame rank).

    The mixed volume of l copies of P.  Zero when the polytope has affine
    dimension below l; the unit lattice cube of the frame has volume 1,
    so the unit l-simplex measures 1/l!.
    """
    if P.is_empty:
        raise ValueError("volume of empty polytope")
    l = frame.rank
    if l == 0:
        _reduce_to_frame(P, frame)  # no copy is measured, but P must fit
    return Fraction(_frame_sum([P] * l, frame), factorial(l))


def _frame_sum(polytopes: Sequence[LatticePolytope], frame: LatticeFrame) -> int:
    """(-1)^(l-k) sum_a l! MV(F^a) of k bodies over the compositions a >= 1
    of l = ``frame.rank``, measured in the frame: ``_reduced_sum`` of the
    bodies reduced to its ``coords``, 0 if one is empty.  The zero cases
    k = 0 and k > l measure no body, so they reduce none."""
    if 0 < len(polytopes) <= frame.rank:
        if any(P.is_empty for P in polytopes):
            return 0
        polytopes = [_reduce_to_frame(P, frame) for P in polytopes]
    return _reduced_sum(polytopes, frame)


def _reduced_sum(point_sets: Sequence[Sequence[Vec]], frame: LatticeFrame) -> int:
    """``_frame_sum`` of nonempty point sets already on the frame's ``coords``.

    The one place that chooses the route: no body gives the empty
    product, 1 in degree 0 and 0 above; more than l bodies give 0;
    otherwise the memo is ``_cayley_sum_of`` for k < l and
    ``_mixed_sum_of`` for k = l.  It is keyed by the sorted canonical
    point sets, so it is looked up before any work is done; its sum is
    ``frame.index`` times the frame's.
    """
    k, l = len(point_sets), frame.rank
    if k == 0 or k > l:
        return int(k == l)
    bodies = tuple(sorted(map(_canonical_pts, point_sets)))
    sum_of = _cayley_sum_of if k < l else _mixed_sum_of
    result, rem = divmod(sum_of(bodies, l), frame.index)
    assert rem == 0, "exponent sum failed to be a multiple of the index"
    return result


def _lifts(key: object, count: int) -> Iterator[list[int]]:
    """Heights in [0, _HEIGHTS) for ``count`` points, one list per lift.

    Seeded by the key, so each input is lifted the same way in every run.
    """
    rng = random.Random(repr(key))
    while True:
        yield [rng.randrange(_HEIGHTS) for _ in range(count)]


@lru_cache(maxsize=_MEMO_SIZE)
def _cayley_sum_of(bodies: tuple[tuple[Vec, ...], ...], l: int) -> int:
    """(-1)^(l-k) sum_a l! MV(F^a) of k canonical bodies in Z^l, a >= 1.

    The lower facets of the lifted Cayley points are the cells; a cell
    in which every body has two points or more adds |det E| of its l
    edge rows, the product of the pivot gcds of one reduction.  A point
    body, or a rank below l, gives 0.  One reduction gives the rank, and
    for a simplicial Cayley set also the value: its l + k points are its
    one cell, with the nonzero ones (each canonical body holds the
    origin) as edge rows.  Other sets are lifted until each cell is a
    simplex; a lifted set is seen once, so its ``_dd`` bypasses the memo.
    """
    k = len(bodies)
    pts = [p for body in bodies for p in body]
    if any(len(body) == 1 for body in bodies):
        return 0
    pivots = _column_reduce(pts, l)[0]
    if len(pivots) < l:
        return 0
    if len(pts) == l + k:
        return (-1) ** (l - k) * prod(g for _i, _col, g in pivots)
    owner = [i for i, body in enumerate(bodies) for _p in body]
    # (p, e_i) with e_0 = 0: the point, then the body's unit vector
    cayley = [p + tuple(int(j == i) for j in range(1, k))
              for p, i in zip(pts, owner)]
    w = l + k
    for heights in _lifts((bodies, l), len(cayley)):
        # point 0, an apex above the first Cayley point, makes the set
        # full-dimensional and lies on no lower facet
        lifted = (cayley[0] + (max(heights) + 1,),) + tuple(
            c + (h,) for c, h in zip(cayley, heights))
        _verts, facets, tights = _dd.__wrapped__(lifted, w)
        cells = [t for (a, _b), t in zip(facets, tights) if a[-1] > 0]
        if all(len(cell) == w for cell in cells):
            break
    total = 0
    for cell in cells:
        by_body: list[list[Vec]] = [[] for _ in bodies]
        for i in cell:
            by_body[owner[i - 1]].append(pts[i - 1])
        if all(len(c) >= 2 for c in by_body):
            edges = [_sub(p, c[0]) for c in by_body for p in c[1:]]
            pivots = _column_reduce(edges, l)[0]
            assert len(pivots) == l, "mixed cell failed to be full-dimensional"
            total += prod(g for _i, _col, g in pivots)
    return (-1) ** (l - k) * total


@lru_cache(maxsize=_MEMO_SIZE)
def _mixed_sum_of(bodies: tuple[tuple[Vec, ...], ...], l: int) -> int:
    """l! MV of l canonical bodies in Z^l, by the mixed-area recursion.

    With P = bodies[0] and Q the sum of the others, it is the sum over
    the facets a.x >= b of Q of -min_P a times the (l-1)! MV of the
    others' faces at a, in a's hyperplane lattice.  Q sums the distinct
    others only (``_minkowski_points``): it has the same facet normals.
    A Q of rank l - 1 has one primitive normal u, and gives the width of
    P along u times the measure of the others in u's hyperplane; a lower
    rank gives 0.  A point body gives 0, a facet on which P's minimum is
    0 or where a face (``_face_at``) is a point adds 0, and l = 1 is the
    lattice length of P.
    Minkowski's relation, sum_a a MV(faces at a) = 0, makes the sum
    independent of where P lies, so the canonical keys are sound.
    """
    if any(len(body) == 1 for body in bodies):
        return 0
    last, rest = bodies[0], bodies[1:]
    if l == 1:
        return last[-1][0]

    def measure(a: Vec, faces: Sequence[Sequence[Vec]]) -> int:
        return _hyperplane_measure(a, faces, lambda projected: _mixed_sum_of(
            tuple(sorted(map(_canonical_pts, projected))), l - 1))

    distinct = list(dict.fromkeys(rest))
    pts = _minkowski_points(distinct, l)
    facets = _dd(pts, l)[1]
    if not facets:
        pivots, normals = _column_reduce(pts, l)
        if len(pivots) < l - 1:
            return 0
        (u,) = normals
        heights = [_dot(u, p) for p in last]
        return (max(heights) - min(heights)) * measure(u, rest)
    total = 0
    for a, _b in facets:
        low = min(_dot(a, p) for p in last)
        if not low:
            continue
        face_of = {body: _face_at(a, body) for body in distinct}
        if any(len(f) == 1 for f in face_of.values()):
            continue
        total -= low * measure(a, [face_of[body] for body in rest])
    return total


def mixed_volume_of(
    polytopes: Sequence[LatticePolytope], frame: LatticeFrame
) -> int:
    """l! times the lattice mixed volume of l bodies in an l-frame.

    The mixed-area recursion over the facets of a sum of l - 1 bodies
    (``_mixed_sum_of``, through ``_frame_sum``).  Symmetric, integer,
    nonnegative.  Any empty body gives 0, and no body in rank 0 gives 1.
    """
    if len(polytopes) != frame.rank:
        raise ValueError("number of bodies must equal the frame rank")
    result = _frame_sum(polytopes, frame)
    assert result >= 0, "mixed volume failed to be nonnegative"
    return result


# ---------------------------------------------------------------------------
# lattice point counting oracle
# ---------------------------------------------------------------------------

def _fm_project(ineqs: Sequence[tuple[Vec, int]]) -> list[tuple[Vec, int]]:
    """Eliminate the last coordinate from a system a.x >= b (Fourier-Motzkin).

    Right-hand sides are tightened by integrality after primitive scaling,
    which is sound because only integer points are ever enumerated.
    """
    kept: dict[Vec, int] = {}

    def add(a: Vec, b: int) -> None:
        if not any(a):
            return
        g = gcd(*a)
        a2 = tuple(c // g for c in a)
        b2 = -((-b) // g)  # ceil(b / g)
        if a2 not in kept or kept[a2] < b2:
            kept[a2] = b2

    lows = []
    ups = []
    for a, b in ineqs:
        if a[-1] == 0:
            add(a[:-1], b)
        elif a[-1] > 0:
            lows.append((a, b))
        else:
            ups.append((a, b))
    for a, b in lows:
        for c, e in ups:
            p = a[-1]
            q = -c[-1]
            combo = tuple(q * x + p * y for x, y in zip(a[:-1], c[:-1]))
            add(combo, q * b + p * e)
    return [(a, b) for a, b in kept.items()]


def _independent_diffs(pts: Sequence[Vec], n: int) -> list[Vec]:
    """The differences p - pts[0], on coordinates independent on their span.

    Full-rank differences are returned as they are.  Below full rank the
    projection onto the greedy independent coordinates is injective on
    the span, so it keeps vertices, faces and the dimension.
    """
    diffs = [_sub(p, pts[0]) for p in pts]
    pivots, normals = _column_reduce(diffs, n)
    if normals:
        keep = _span_coords(diffs, pivots)[0]
        diffs = [tuple(p[j] for j in keep) for p in diffs]
    return diffs


def _count_lattice_points(pts: Sequence[Vec]) -> int:
    """Number of lattice points in conv(pts), when pts span Q^n.

    Below full rank it counts the points of a projection onto independent
    coordinates, whose Ehrhart polynomial has the same degree: the degree
    is all the oracle needs of a lower-dimensional body.
    """
    uniq = sorted(set(pts))
    reduced = _independent_diffs(uniq, len(uniq[0]))
    a = len(reduced[0])
    if a == 0:
        return 1
    systems: list[list[tuple[Vec, int]]] = [list(_dd(tuple(reduced), a)[1])]
    for _ in range(a - 1):
        systems.append(_fm_project(systems[-1]))
    systems.reverse()  # systems[j-1] constrains the first j coordinates
    return _enumerate_count(systems, a)


def _enumerate_count(systems: list[list[tuple[Vec, int]]], a: int) -> int:
    bounding = []
    for j in range(a):
        bounding.append([(r, b) for r, b in systems[j] if r[j] != 0])

    def rec(prefix: tuple[int, ...], j: int) -> int:
        lo = None
        hi = None
        for r, b in bounding[j]:
            partial = b - sum(r[i] * prefix[i] for i in range(j))
            cj = r[j]
            if cj > 0:
                val = -((-partial) // cj)  # ceil
                if lo is None or val > lo:
                    lo = val
            else:
                val = partial // cj  # floor for negative divisor
                if hi is None or val < hi:
                    hi = val
        assert lo is not None and hi is not None, "polytope is unbounded"
        if hi < lo:
            return 0
        if j == a - 1:
            return hi - lo + 1
        return sum(rec(prefix + (x,), j + 1) for x in range(lo, hi + 1))

    return rec((), 0)


def lattice_point_volume_oracle(
    P: LatticePolytope, frame: LatticeFrame
) -> Fraction:
    """Volume via Ehrhart-style counting, independent of the facet pyramids.

    Counts lattice points of the dilates tP for t = 0..l, takes the l-th
    finite difference to extract the leading coefficient of the counting
    polynomial, which is exactly the normalized l-volume.
    """
    if P.is_empty:
        raise ValueError("volume of empty polytope")
    l = frame.rank
    reduced = _reduce_to_frame(P, frame)
    counts = [_count_lattice_points([tuple(t * c for c in p) for p in reduced])
              for t in range(l + 1)]
    lead = sum((-1) ** (l - i) * comb(l, i) * counts[i] for i in range(l + 1))
    return Fraction(lead, factorial(l) * frame.index)
