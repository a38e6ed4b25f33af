"""Lattice-normalized volumes and mixed volumes of lattice polytopes.

Volumes are normalized to the lattice of a saturated frame, and
measured by coordinate projection: a body's differences are kept on the
frame's ``coords``, where the frame lattice has index ``frame.index``,
so each volume, and each term of a dilation sum (the projection commutes
with Minkowski sums and dilation), is divided by it.  ``_pyramid_sum``
returns the integer l! Vol_l as a sum of lattice pyramids over the
facets (Lasserre's facet recursion): with a vertex v0 as apex, a facet
a.x >= b with primitive a adds the lattice distance a.v0 - b times the
(l-1)! Vol_{l-1} of the facet in its own hyperplane lattice.  Facets
through v0 have height zero and are skipped.  The facet is measured by
``lattice._hyperplane_measure``: delete the coordinate j of smallest
nonzero |a_j|, and divide the projection's (l-1)! Vol_{l-1} by |a_j|,
the index of the projected hyperplane lattice.  Mixed volumes and the
q-exponents of ``qforms`` are one dilation sum over k bodies F_i in an
l-frame, evaluated by ``_dilation_sum``:

    sum_b c(b) Vol_l(b_1 F_1 + ... + b_k F_k),
    c(b) = (-1)^(|b|+k) C(l+k-1-z(b), |b|+k-1),

over b >= 0, b != 0, with z(b) zero entries in b and |b| + z(b) <= l.
It equals (-1)^(l-k) sum_a l! MV(F^a) over compositions a >= 1 of l,
body F_i taken a_i times.  Polarization gives l! MV(F^a) = sum_{0<=b<=a}
(-1)^(l-|b|) prod_i C(a_i, b_i) Vol_l(b.F); summing over a with
sum_{a>=1} C(a,b) x^a = x^max(b,1) / (1-x)^(b+1), c(b) is the
coefficient of x^l in the product over i.  For k = l only a = (1,...,1)
is left, b runs over the nonzero 0/1 vectors with c(b) = (-1)^(l-|b|),
and the sum is l! MV(F_1, ..., F_l).
A lattice-point counting oracle (dilate, count, interpolate) provides an
independent route to the projected volumes for cross-validation.

The memos are ``functools.lru_cache`` on canonical tuples, each bounded
by ``polytope._MEMO_SIZE``.  Each measured body runs one double
description: ``polytope._dd`` of its raw Minkowski points gives both
the vertices that extend it and the facets that measure it.
``lattice_volume`` tests the rank once, and ``_dilation_sum_of`` once
per support of b; the recursion below does not, because a facet of a
full-rank body projects to a full-rank body.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, gcd
from typing import Iterator, Sequence

from .lattice import (LatticeFrame, _column_reduce, _dot, _hyperplane_measure,
                      _rank, _span_coords)
from .polytope import _MEMO_SIZE, LatticePolytope, Vec, _dd, _sub

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


def _canonical_pts(pts: Sequence[Vec]) -> tuple[Vec, ...]:
    """Sorted, deduplicated, translated so the lexicographic min is 0."""
    uniq = sorted(set(pts))
    base = uniq[0]
    return tuple(_sub(p, base) for p in uniq)


@lru_cache(maxsize=_MEMO_SIZE)
def _pyramid_sum(pts: tuple[Vec, ...], l: int) -> int:
    """l! Vol_l of any full-rank canonical pts, summed over the facets.

    Facets and their vertices come from ``_dd(pts, l)``.  The apex pts[0],
    the lexicographic minimum, is the origin and always a vertex.
    """
    if l == 0:
        return 1
    vol = 0
    # the apex is at lattice distance -b from a facet
    for (a, b), tset in zip(*_dd(pts, l)[1:]):
        if b:
            vol -= b * _hyperplane_measure(
                a, [[pts[i] for i in tset]],
                lambda facet: _pyramid_sum(_canonical_pts(facet[0]), l - 1))
    return vol


# ---------------------------------------------------------------------------
# public volume operations
# ---------------------------------------------------------------------------

def lattice_volume(P: LatticePolytope, frame: LatticeFrame) -> Fraction:
    """Normalized l-dimensional volume of P in the frame (l = frame rank).

    Zero when the polytope has affine dimension below l; the unit lattice
    cube of the frame has volume 1, so the unit l-simplex measures 1/l!.
    """
    if P.is_empty:
        raise ValueError("volume of empty polytope")
    l = frame.rank
    extremes = _canonical_pts(_reduce_to_frame(P, frame))
    vol = _pyramid_sum(extremes, l) if _rank(extremes[1:]) == l else 0
    return Fraction(vol, factorial(l) * frame.index)


def _dilation_terms(k: int, l: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Dilation vectors b of k bodies in lexicographic order, with c(b)."""
    # b_i <= l - (k - 1): each other entry costs at least one degree
    for b in product(range(l - k + 2), repeat=k):
        size = sum(b)
        zeros = b.count(0)
        if size and size + zeros <= l:
            yield b, (-1) ** (size + k) * comb(l + k - 1 - zeros, size + k - 1)


def _dilation_sum(
    polytopes: Sequence[LatticePolytope], frame: LatticeFrame
) -> int:
    """Sum of c(b) Vol_l(b_1 F_1 + ... + b_k F_k) for k nonempty bodies.

    The memo is keyed by the sorted canonical projected point sets, so it
    is looked up before any term is built; its sum is ``frame.index``
    times the frame's.
    """
    bodies = tuple(sorted(_canonical_pts(_reduce_to_frame(P, frame))
                          for P in polytopes))
    result, rem = divmod(_dilation_sum_of(bodies, frame.rank), frame.index)
    assert rem == 0, "dilation sum failed to be a multiple of the index"
    return result


@lru_cache(maxsize=_MEMO_SIZE)
def _dilation_sum_of(bodies: tuple[tuple[Vec, ...], ...], l: int) -> int:
    """The dilation sum of canonical bodies in Z^l.

    Vol_l(b.F) is 0 unless the bodies with b_i > 0 (each holds the origin)
    span Q^l: one rank test per support.  Each dilated sum that is needed
    is built once, from the ``_dd`` vertices of the sum for the prefix of
    b, and kept as its canonical raw Minkowski points for ``_pyramid_sum``.
    """
    sums: dict[tuple[int, ...], tuple[Vec, ...]] = {(): ((0,) * l,)}
    full: dict[tuple[int, ...], bool] = {}
    total = 0
    for b, c in _dilation_terms(len(bodies), l):
        support = tuple(i for i, t in enumerate(b) if t)
        if support not in full:
            full[support] = _rank([p for i in support for p in bodies[i]]) == l
        if not full[support]:
            continue
        pts = sums[()]
        for j, t in enumerate(b):
            nxt = sums.get(b[: j + 1])
            if nxt is None:
                nxt = pts if t == 0 else _canonical_pts(
                    [tuple(x + t * y for x, y in zip(pts[i], q))
                     for i in _dd(pts, l)[0] for q in bodies[j]]
                )
                sums[b[: j + 1]] = nxt
            pts = nxt
        total += c * _pyramid_sum(pts, l)
    result, rem = divmod(total, factorial(l))
    assert rem == 0, "dilation sum failed to be integral"
    return result


def mixed_volume_of(
    polytopes: Sequence[LatticePolytope], frame: LatticeFrame
) -> int:
    """l! times the lattice mixed volume of l bodies in an l-frame.

    The dilation sum with k = l, that is, polarization over the 2^l - 1
    nonempty subsets.  Symmetric, integer, nonnegative.  Any empty body
    gives 0.
    """
    bodies = list(polytopes)
    l = frame.rank
    if len(bodies) != l:
        raise ValueError("number of bodies must equal the frame rank")
    if any(b.is_empty for b in bodies):
        return 0
    if l == 0:
        return 1
    result = _dilation_sum(bodies, frame)
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
