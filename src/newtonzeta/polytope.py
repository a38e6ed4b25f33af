"""Exact lattice polytopes in vertex representation.

A polytope is carried by its irredundant vertex set; faces, facet
normals and Minkowski sums are all computed from vertices with exact
integer arithmetic.  One function, ``_dd``, answers both questions
asked of a point set, its vertices and its facets (no facet incidence),
by one double description sweep over the dual cone of the
homogenization, which stays exact in any ambient dimension; a
lower-dimensional set is swept modulo that cone's lineality space, and
its facets are the two sides of its hyperplane when it has one
(codimension one), none otherwise.  ``_dd`` takes a point set in one
form, ``_canonical_pts`` (sorted, deduplicated, translated so its
lexicographic minimum is the origin), and is memoized on it by
``functools.lru_cache``, bounded by ``_MEMO_SIZE``, since the same
polytopes and their translates recur heavily in mixed-volume and
stratum work; its ``cache_info()`` reports size and hit rate,
``cache_clear()`` empties it.  A sweep that passes ``_MAX_RAYS`` live
rays raises ``HullTooLarge``, so no input runs on for minutes; the memo
stores no error.

The sweep takes the points farthest from their centroid first, its start
cone's too; its outputs are sorted and indexed by input position, so
none depends on that order, only the sweep's transient rays do.

Masks find the vertices, bookkept rather than recomputed: each ray
carries the mask of the start and cut rows it is zero on (a row that
cuts no ray lies in the hull before it, and gets no bit), a new ray the
common mask of its two parents (see ``_dd``).  A point is a vertex
exactly when the facets through it meet in that point alone, because
the points are distinct and the smallest face containing a point is the
intersection of the facets through it.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul, sub
from typing import Iterable, Sequence

from .lattice import (
    Covector,
    IntPoint,
    _column_reduce,
    _rank,
    _triangular_inverse,
    _Value,
)

__all__ = [
    "HullTooLarge",
    "LatticePolytope",
    "FaceRecord",
    "hull",
    "dim",
    "support_min",
    "face",
    "minkowski_sum",
    "restrict_to_index_set",
    "facet_normals",
]


Vec = tuple[int, ...]

# Bound on the entries of each lru_cache memo here, in ``volumes`` and in
# ``engine``: over seeds 1-10 of every benchmark workload the largest cold
# pass holds 607 entries in ``_q_sum_of`` (deform-affine; 833 with the
# round's Euler checks), 376 in ``_dd`` (polyzeta-cone; 531 in a
# deform-affine round with its checks) and 210 in ``_stratum_traces``
# (polyzeta-cone), so no round evicts.  At the largest measured bytes per
# entry (tracemalloc's drop on each ``cache_clear()``, ``_dd`` cleared
# last: 4.4 KB ``_dd`` and 1.4 KB ``_q_sum_of``, both mixedvol-d4, and
# 1.5 KB ``_stratum_traces``, deform-affine seed 1), the three memos hold
# about 60 MB when full.
_MEMO_SIZE = 8192

# Bound on the live rays of one double description, checked after each
# point that cuts a ray: over seeds 1-10 of every benchmark workload no
# sweep holds more than 88 (mixedvol-d4), and the mixed volumes of five
# random 7-point bodies in [0,4]^5 (seeds 1-3) peak at 2,035.  The
# facets of a hull can grow like N^(d/2) (McMullen's upper bound
# theorem): 60 random points of [0,9]^8 pass the bound after 3.4 s of
# CPU on a 2-core Xeon, where the sweep would run for minutes.
_MAX_RAYS = 4096


class HullTooLarge(ValueError):
    """A point set whose double description passes ``_MAX_RAYS`` live
    rays; ``points`` is its canonical set (``_canonical_pts``), flat or
    not, and no memo stores the error."""

    def __init__(self, points: tuple[Vec, ...]):
        super().__init__(f"the convex hull of {len(points)} points in dimension "
                         f"{len(points[0])} needs more than {_MAX_RAYS} rays")
        self.points = points


def _sub(p: Vec, q: Vec) -> Vec:
    return tuple(map(sub, p, q))


def _primitive(v: Vec) -> Vec:
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(c // g for c in v)


class LatticePolytope(_Value):
    """Convex hull of finitely many lattice points, stored by vertices.

    ``vertices`` is canonically sorted and irredundant: every stored
    point is an extreme point of the hull.  The empty polytope keeps its
    ambient dimension so sums and restrictions stay well-typed.
    """

    __slots__ = _fields = ("vertices", "ambient_dim")

    def __init__(self, vertices: Iterable[IntPoint], ambient_dim: int):
        verts = tuple(sorted(vertices, key=lambda p: p.coords))
        for v in verts:
            if v.dim != ambient_dim:
                raise ValueError("vertex dimension does not match ambient_dim")
        if len({v.coords for v in verts}) != len(verts):
            raise ValueError("duplicate vertices")
        self._store(verts, ambient_dim)

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @classmethod
    def empty(cls, ambient_dim: int) -> "LatticePolytope":
        return cls((), ambient_dim)

    def raw_vertices(self) -> list[Vec]:
        return [v.coords for v in self.vertices]

    def __repr__(self) -> str:
        if self.is_empty:
            return f"LatticePolytope(empty, dim={self.ambient_dim})"
        pts = ", ".join(str(v.coords) for v in self.vertices)
        return f"LatticePolytope([{pts}])"


class FaceRecord(_Value):
    """A face cut out by a covector: the minimizing subset and its level."""

    __slots__ = _fields = ("face", "normal", "min_value")

    def __init__(self, face: LatticePolytope, normal: Covector, min_value: int):
        self._store(face, normal, min_value)


# ---------------------------------------------------------------------------
# double description: vertices and facets of a point set
# ---------------------------------------------------------------------------

def _canonical_pts(pts: Iterable[Vec]) -> tuple[Vec, ...]:
    """Sorted, deduplicated, translated so the lexicographic min is 0 (kept if it is)."""
    uniq = sorted(set(pts))
    base = uniq[0]
    if not any(base):
        return tuple(uniq)
    return tuple(_sub(p, base) for p in uniq)


@lru_cache(maxsize=_MEMO_SIZE)
def _dd(pts: tuple[Vec, ...]) -> tuple[tuple[int, ...], tuple[tuple[Vec, int], ...]]:
    """Sorted vertex indices and sorted facets; no facet incidence.

    ``pts`` are distinct points of Z^d, d = ``len(pts[0])``; callers pass
    ``_canonical_pts`` of their set, so its translates share one memo
    entry, and the indices and the levels b belong to that translate.
    Each facet satisfies ``a . x >= b`` on conv(pts) with equality
    exactly on the facet; ``a`` is primitive.
    Facets are the extreme rays of the dual cone
    ``{(c0, c) : c0 + c.p >= 0 for all p}``, found by an incremental
    double description sweep whose tight-set masks find the vertices.
    Every row (1, p) vanishes on the kernel of the rows' one reduction,
    so the kernel is the cone's lineality space, and the sweep runs
    modulo it (Fukuda-Prodon) in any dimension: it starts from the w
    pivot rows, w the rank of the rows (the affine rank plus 1), and its
    masks are those of the set in its own affine hull.  Two rays on
    opposite sides of a row are adjacent when they share w - 2 zero rows
    and no third ray is zero on all of them.  At full rank its rays are
    the facets.
    At affine rank d - 1 the facets are the hyperplane's two sides,
    u.x >= -c0 and -u.x >= c0, from the one primitive kernel vector
    (c0, u) (u is primitive too, as its gcd divides c0 = -u.p); this
    includes one point in Z^1.  Lower down there are none.

    ``_triangular_inverse`` reads the start rays off the reduction: ray j
    is primitive, zero on the other start rows and positive on row j, so
    it spans their saturated kernel modulo the lineality space.

    All rows are sorted farthest from the centroid first, ties in index
    order, before the reduction: the start rows are the first independent
    far points.  A later row on which no ray is negative lies in the hull
    of the rows before it, as the start rows span the row space, so it is
    never a vertex and gets no bit (the adjacency test holds for any rows
    that cut out the cone).  Far points are likelier vertices, so the
    others come late and mostly cut nothing; no output depends on order.

    The masks are inherited, not rescanned.  A start ray is zero on every
    start row but its own.  A ray made at cut row t, ``vp*r_m - vm*r_p``
    with ``vp > 0 > vm``, is zero on an earlier row exactly when both
    parents are (both are >= 0 there) and on row t, so its mask is their
    common mask plus t's bit.  Only start and cut rows, which hold every
    vertex, are tested as vertices.
    """
    d, n = len(pts[0]), len(pts)
    # rows far from the centroid first: n|p|^2 - 2 p.s, with s the
    # coordinate sums, orders them as n^2 |p - s/n|^2 does
    s2 = [2 * sum(col) for col in zip(*pts)]
    order = sorted(range(n), key=lambda i: sum(map(mul, s2, pts[i]))
                   - n * sum(map(mul, pts[i], pts[i])))
    rows = [(1,) + pts[i] for i in order]
    # one reduction picks the start cone's rows and gives the lineality space
    pivots, kernel = _column_reduce(rows, d + 1)
    w = len(pivots)
    facets: tuple[tuple[Vec, int], ...] = ()
    if len(kernel) == 1:
        c0, *u = kernel[0]  # c0 + u.p = 0 on every point
        facets = tuple(sorted([(tuple(u), -c0), (tuple(-c for c in u), c0)]))
    if w == n and (kernel or n == 1):  # a flat simplex: all vertices, no rays
        return tuple(range(n)), facets
    cut = [i for i, _col, _g in pivots]  # the rows with a mask bit, bit j for cut[j]
    rays = _triangular_inverse([rows[i] for i in cut], pivots)

    # ray j is zero exactly on the start rows other than j
    full = (1 << w) - 1
    masks = [full ^ (1 << j) for j in range(w)]

    for t in sorted(set(range(n)).difference(cut)):
        a = rows[t]
        vals = [sum(map(mul, a, r)) for r in rays]
        if min(vals) >= 0:
            continue  # in the hull of the rows before it: no bit
        bit = len(cut)
        cut.append(t)
        plus = [i for i, v in enumerate(vals) if v > 0]
        minus = [i for i, v in enumerate(vals) if v < 0]
        fresh: list[tuple[Vec, int]] = []
        for ip in plus:
            for im in minus:
                common = masks[ip] & masks[im]
                if common.bit_count() < w - 2:
                    continue
                for io, m in enumerate(masks):
                    if common & m == common and io != ip and io != im:
                        break
                else:
                    vp, vm = vals[ip], vals[im]
                    combo = tuple(
                        vp * cm - vm * cp for cp, cm in zip(rays[ip], rays[im])
                    )
                    fresh.append((_primitive(combo), common | (1 << bit)))
        # no ray comes twice: a kept ray equal to a fresh one would dominate
        # its pair, and a ray from two pairs would lie inside two 2-faces
        kept = [i for i, v in enumerate(vals) if v >= 0]
        masks = [masks[i] | ((vals[i] == 0) << bit) for i in kept] + [m for _, m in fresh]
        rays = [rays[i] for i in kept] + [r for r, _ in fresh]
        if len(rays) > _MAX_RAYS:
            raise HullTooLarge(pts)

    # a row is a vertex when the AND of the masks through it is its bit
    common = [-1] * len(cut)
    for m in masks:
        for j in range(len(cut)):
            if m >> j & 1:
                common[j] &= m
    vertices = tuple(sorted(order[cut[j]] for j, c in enumerate(common) if c == 1 << j))
    assert all(any(r[1:]) for r in rays), "trivial dual ray should not be extreme"
    if not kernel:
        facets = tuple(sorted((r[1:], -r[0]) for r in rays))
    return vertices, facets


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def hull(points: Iterable[IntPoint], ambient_dim: int | None = None) -> LatticePolytope:
    """Convex hull with an irredundant vertex set.

    ``ambient_dim`` is only needed for an empty point list.
    """
    pts = list(points)
    if not pts:
        if ambient_dim is None:
            raise ValueError("ambient_dim required for an empty hull")
        return LatticePolytope.empty(ambient_dim)
    n = pts[0].dim
    if any(p.dim != n for p in pts):
        raise ValueError("mixed dimensions in hull input")
    if ambient_dim is not None and ambient_dim != n:
        raise ValueError("ambient_dim does not match point dimension")
    uniq = sorted({p.coords for p in pts})
    verts = _dd(_canonical_pts(uniq))[0]  # translation keeps uniq's order
    return LatticePolytope(tuple(IntPoint(uniq[i]) for i in verts), n)


def _affine_dim(pts: Sequence[Vec]) -> int:
    """The affine dimension of distinct points (size - 1 up to 2): the rank
    of their differences, reduced as their transpose, one column each."""
    if len(pts) < 3:
        return len(pts) - 1
    return _rank(list(zip(*[_sub(p, pts[0]) for p in pts[1:]])))


def dim(P: LatticePolytope) -> int:
    """Affine dimension; the empty polytope has dimension -1."""
    return _affine_dim(P.raw_vertices())


def support_min(P: LatticePolytope, alpha: Covector) -> int:
    """Minimum of the covector over the polytope."""
    if P.is_empty:
        raise ValueError("support of empty polytope")
    if alpha.dim != P.ambient_dim:
        raise ValueError("covector dimension does not match polytope")
    return min(alpha.pair(v) for v in P.vertices)


def face(P: LatticePolytope, alpha: Covector) -> FaceRecord:
    """The face where the covector attains its minimum over the polytope."""
    if P.is_empty:
        raise ValueError("face of empty polytope")
    values = [(alpha.pair(v), v) for v in P.vertices]
    m = min(val for val, _ in values)
    face_verts = tuple(v for val, v in values if val == m)
    return FaceRecord(LatticePolytope(face_verts, P.ambient_dim), alpha, m)


def minkowski_sum(P: LatticePolytope, Q: LatticePolytope) -> LatticePolytope:
    """Minkowski sum; empty absorbs (the empty-summand convention)."""
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("dimension mismatch in minkowski_sum")
    if P.is_empty or Q.is_empty:
        return LatticePolytope.empty(P.ambient_dim)
    sums = [p + q for p in P.vertices for q in Q.vertices]
    return hull(sums)


def restrict_to_index_set(P: LatticePolytope, index_set: Iterable[int]) -> LatticePolytope:
    """Intersect with the coordinate subspace of the given indices.

    Valid for polytopes with nonnegative vertices (Newton polytopes and
    their cones), where the intersection is exactly the hull of the
    vertices supported on the index set; a guard enforces nonnegativity.
    Indices are 0-based.
    """
    idx = frozenset(index_set)
    if P.is_empty:
        return P
    for v in P.vertices:
        if any(c < 0 for c in v.coords):
            raise ValueError("restrict_to_index_set requires nonnegative vertices")
    kept = tuple(
        v for v in P.vertices
        if all(c == 0 for i, c in enumerate(v.coords) if i not in idx)
    )
    return LatticePolytope(kept, P.ambient_dim)


def facet_normals(P: LatticePolytope) -> list[FaceRecord]:
    """All facets of a full-dimensional polytope with primitive inner normals.

    Raises for lower-dimensional input, which ``_dd`` gives no facets or
    the two sides of its hyperplane, whose faces hold every vertex.
    """
    n = P.ambient_dim
    if P.is_empty:
        raise ValueError("not full-dimensional")
    records = [face(P, Covector(a)) for a, _b in _dd(_canonical_pts(P.raw_vertices()))[1]]
    if n and (not records or len(records[0].face.vertices) == len(P.vertices)):
        raise ValueError("not full-dimensional")
    return records
