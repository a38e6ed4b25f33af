"""Lattice-normalized volumes and mixed volumes of lattice polytopes.

Volumes are normalized to the lattice of a saturated frame, and
measured by coordinate projection: a body's differences are kept on the
frame's ``coords``, where the frame lattice has index ``frame.index``,
so each volume, mixed volume and exponent (the projection is linear and
commutes with Minkowski sums) is divided by it.  A facet is measured by
``lattice._hyperplane_measure``: delete the coordinate j of smallest
nonzero |a_j| of its primitive normal a, and divide the projection's
(l-1)! measure by |a_j|, the index of the projected hyperplane lattice.

The q-exponents of ``qforms`` are T_l(F) = (-1)^(l-k) sum_a l! MV(F^a)
over the compositions a >= 1 of l, body F_i of k bodies taken a_i
times.  A mixed volume is the case k = l, whose one composition is
(1, ..., 1), and a volume is the mixed volume of l copies of one body.
One memo, ``_q_sum_of``, measures them all by Minkowski's mixed-area
recursion (Schneider, Convex Bodies: The Brunn-Minkowski Theory, 5.1):
with P one body, l! MV(P, K_2, ..., K_l) is the sum over the primitive
facet normals u of K_2 + ... + K_l of -min_P u times the (l-1)! MV of
the K_i's faces at u, in u's hyperplane lattice.  Take one copy of P out
of every composition: the rest keeps P when a_P >= 2 and drops it when
a_P = 1, so

    T_l(F) = sum_u (-min_P u) [T_(l-1)(faces at u but P's) - T_(l-1)(faces at u)],

the "drop minus keep" form of ``qforms.q_tilde_exponent`` one degree
down.  The u are the facet normals of the sum of all the bodies, whose
normal fan refines every rest's.  For k = l, keeping P leaves l bodies
in degree l - 1, which give 0, so the u are those of the others' sum.  No
composition is enumerated and only faces at the normals are measured.
For a volume the recursion reads l! Vol_l as a sum of lattice pyramids
over its facets, with apex the origin (Lasserre's facet recursion).
A set of l + k points of rank l is one simplex, measured by one
determinant with no hull.  ``_vanishes`` is the one zero rule, by
counting (more bodies than l, a point body), for ``_q_sum`` and the
engine's strata; ``_q_sum`` builds the canonical key for every other
case, so the memo stores no zero answer; it serves ``lattice_volume``,
``mixed_volume_of``, ``qforms`` and the engine's faces, which
``_reduced_sum`` takes as tuples, and the recursion itself.
A lattice-point counting oracle (dilate, count, interpolate) provides an
independent route to the projected volumes for cross-validation: it
scans the bounding box of a body but its last coordinate, and the
body's facets bound that coordinate to an interval on each prefix.

The memos are ``functools.lru_cache`` on canonical tuples, each bounded
by ``polytope._MEMO_SIZE``.  Each measured sum runs one double
description: ``polytope._dd`` of its canonical Minkowski points gives both
the vertices that extend it and its codimension-one faces' normals
(``_sum_normals``: the facet normals or, for a flat sum, the two normals
of its hyperplane), for the recursion and the engine's candidate
covectors.  One column reduction gives the rank of the bodies and, for
a simplex, its value.
No pseudo-random value and no float enters a result.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, prod
from operator import add
from typing import Sequence

from .lattice import (LatticeFrame, _column_reduce, _dot, _hyperplane_measure,
                      _span_coords)
from .polytope import _MEMO_SIZE, LatticePolytope, Vec, _canonical_pts, _dd, _sub

__all__ = [
    "lattice_volume",
    "mixed_volume_of",
    "lattice_point_volume_oracle",
]

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


def _minkowski_points(bodies: Sequence[Sequence[Vec]], d: int) -> tuple[Vec, ...]:
    """Canonical points of the sum of point sets in Z^d (the origin for
    none), each partial sum extended from the vertices of its ``_dd``."""
    pts = _canonical_pts(bodies[0]) if bodies else ((0,) * d,)
    for body in bodies[1:]:
        pts = _canonical_pts([tuple(map(add, pts[i], q))
                              for i in _dd(pts)[0] for q in body])
    return pts


def _sum_normals(bodies: Sequence[Sequence[Vec]], d: int) -> list[Vec]:
    """The sorted primitive inner normals of the codimension-one faces of
    the sum of point sets in Z^d: the ``_dd`` facet normals of its
    ``_minkowski_points``, which for a flat sum are the two sides of its
    hyperplane."""
    return [a for a, _b in _dd(_minkowski_points(bodies, d))[1]]


def _vanishes(point_sets: Sequence[Sequence[Vec]], l: int) -> bool:
    """Whether T_l of the point sets is 0 by counting: every composition of
    l takes each set at least once, so more than l sets, or a one-point set
    (of mixed volume 0 with any others), give 0."""
    return len(point_sets) > l or any(len(pts) == 1 for pts in point_sets)


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
    return Fraction(_reduced_sum([_reduce_to_frame(P, frame)] * l, frame), factorial(l))


def _frame_sum(polytopes: Sequence[LatticePolytope], frame: LatticeFrame) -> int:
    """(-1)^(l-k) sum_a l! MV(F^a) of k bodies over the compositions a >= 1
    of l = ``frame.rank``, measured in the frame: ``_reduced_sum`` of the
    bodies reduced to its ``coords``, 0 if one is empty."""
    if any(P.is_empty for P in polytopes):
        return 0
    return _reduced_sum([_reduce_to_frame(P, frame) for P in polytopes], frame)


def _reduced_sum(point_sets: Sequence[Sequence[Vec]], frame: LatticeFrame) -> int:
    """``_frame_sum`` of nonempty point sets already on the frame's ``coords``:
    ``_q_sum`` in Z^l, which is ``frame.index`` times the frame's."""
    result, rem = divmod(_q_sum(point_sets, frame.rank), frame.index)
    assert rem == 0, "exponent sum failed to be a multiple of the index"
    return result


def _q_sum(point_sets: Sequence[Sequence[Vec]], l: int) -> int:
    """T_l of k nonempty sets of distinct points in Z^l (see ``_q_sum_of``).

    The zero cases are decided here, before a key is built: no set gives
    the empty product, 1 in degree 0 and 0 above, and ``_vanishes`` names
    the others.  Any other case is looked up in the memo ``_q_sum_of``,
    keyed by the sorted canonical sets, so no zero answer is stored.
    """
    if not point_sets:
        return int(l == 0)
    if _vanishes(point_sets, l):
        return 0
    return _q_sum_of(tuple(sorted(map(_canonical_pts, point_sets))), l)


@lru_cache(maxsize=_MEMO_SIZE)
def _q_sum_of(bodies: tuple[tuple[Vec, ...], ...], l: int) -> int:
    """T_l = (-1)^(l-k) sum_a l! MV(F^a) of 1 <= k <= l canonical bodies in
    Z^l, none of them a point; ``_q_sum`` decides the other cases.

    A rank below l gives 0.  l = 1 is the lattice length of the one body.
    A set of l + k points of rank l is one simplex: its l nonzero points
    (each canonical body holds the origin once) are the edge rows, and
    T_l is (-1)^(l-k) |det|, the product of the pivot gcds of the
    reduction that tests the rank.  Otherwise T_l is the sum over the
    ``_sum_normals`` u of the distinct bodies (the others' when k = l) of
    -min_P u times T_(l-1) of the faces at u without P = bodies[0], minus
    with it (see the module docstring), in u's hyperplane lattice.  A
    normal where P's minimum is 0, or where the faces but P's vanish (one
    is a point), adds 0.  Minkowski's relation, sum_u u MV(faces at u) = 0,
    makes each term independent of where P lies, so the canonical keys
    are sound.
    """
    k = len(bodies)
    if l == 1:
        return bodies[0][-1][0]
    pts = [p for body in bodies for p in body]
    pivots = _column_reduce(pts, l)[0]
    if len(pivots) < l:
        return 0
    if len(pts) == l + k:
        return (-1) ** (l - k) * prod(g for _i, _col, g in pivots)
    first, rest = bodies[0], bodies[1:]

    def drop_minus_keep(projected: list[list[Vec]]) -> int:
        return _q_sum(projected[1:], l - 1) - _q_sum(projected, l - 1)

    distinct = list(dict.fromkeys(rest if k == l else bodies))
    total = 0
    for a in _sum_normals(distinct, l):
        low = min(_dot(a, p) for p in first)
        if not low:
            continue
        face_of = {body: _face_at(a, body) for body in distinct}
        faces = [face_of[body] for body in rest]
        if _vanishes(faces, l - 1):
            continue
        total -= low * _hyperplane_measure(a, [_face_at(a, first)] + faces,
                                           drop_minus_keep)
    return total


def mixed_volume_of(
    polytopes: Sequence[LatticePolytope], frame: LatticeFrame
) -> int:
    """l! times the lattice mixed volume of l bodies in an l-frame.

    The mixed-area recursion over the facets of a sum of l - 1 bodies
    (``_q_sum_of``, through ``_frame_sum``).  Symmetric, integer,
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

def _independent_diffs(pts: Sequence[Vec]) -> Sequence[Vec]:
    """``_canonical_pts(pts)``, on coordinates independent on their span.

    Full-rank points are returned as they are.  Below full rank the
    projection onto the greedy independent coordinates is injective on
    the span, so it keeps the order, vertices, faces and the dimension.
    """
    diffs = _canonical_pts(pts)
    pivots, normals = _column_reduce(diffs, len(diffs[0]))
    if normals:
        keep = _span_coords(diffs, pivots)[0]
        diffs = [tuple(p[j] for j in keep) for p in diffs]
    return diffs


def _count_lattice_points(pts: Sequence[Vec]) -> int:
    """Number of lattice points in conv(pts), when pts span Q^n.

    The count does not depend on translation, so the box scan runs on the
    set its ``_dd`` sweeps, ``_canonical_pts`` of the independent diffs.
    Below full rank it counts the points of a projection onto independent
    coordinates, whose Ehrhart polynomial has the same degree: the degree
    is all the oracle needs of a lower-dimensional body.  Each point x of
    the bounding box on every coordinate but the last adds the length of
    the interval of last coordinates y that the facets leave: a.(x, y) >= b
    is a lower bound on y when a_y > 0, an upper one when a_y < 0, and a
    bound on x alone when a_y = 0.
    """
    reduced = _canonical_pts(_independent_diffs(pts))
    if not reduced[0]:
        return 1
    facets = [(a[:-1], a[-1], b) for a, b in _dd(reduced)[1]]
    *box, last = [(min(c), max(c)) for c in zip(*reduced)]
    total = 0
    for x in product(*[range(lo, hi + 1) for lo, hi in box]):
        lo, hi = last
        for a, a_y, b in facets:
            rest = b - _dot(a, x)  # a_y * y >= rest
            if a_y > 0:
                lo = max(lo, -(-rest // a_y))
            elif a_y < 0:
                hi = min(hi, rest // a_y)
            elif rest > 0:
                break
        else:
            total += max(0, hi - lo + 1)
    return total


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
