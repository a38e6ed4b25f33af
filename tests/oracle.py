"""Rational reference routines, the oracles the exact code is checked against.

Plain Gauss-Jordan elimination over Fraction: slow, but independent of
the unimodular column reduction in newtonzeta.lattice.  The per-point
rank test for vertices is the reference for the mask-based vertex test
in newtonzeta.polytope.  The composition expansion of the q-exponents
and the inclusion-exclusion over all 2^l Minkowski subset sums are the
references for the exponents and mixed volumes that newtonzeta.volumes
measures by the mixed-area recursion; on boxes, ``permanent`` of the
side lengths is a closed form for each mixed volume.  ``_abs_det`` is
not a reference but a reading of the column reduction: the tests
compare its pivot gcds with the Leibniz determinant and with a residue
count.  One saturated kernel per facet of a simplex is the reference
for the start cone that the double description reads off a single
triangular substitution, and a saturated kernel frame per covector is
the reference for the engine's stratum measure, which reads the
hyperplane lattice off the covector instead.  ``zeta_by_strata`` is the
reference for the engine's strata driver: it restricts every stratum
with ``restrict_system`` and skips none, where the engine reads each
stratum once and skips those that cannot contribute.
``facets_by_subsets`` finds facets from the hyperplanes through every
d-subset of the points, by signed minors that a fraction-free
(Bareiss) elimination takes; it is the reference for the
double description in any input order.  ``expand_expression``
multiplies out an expression tree one term choice at a time, a power as
k factors like any product; it is the reference for the polynomial
parser, which it shares no code with.  ``on_stratum_by_norms`` reads a
stratum by comparing 1-norms, the reference for the engine's read by
support masks.  ``lattice_point_volume_oracle`` counts the lattice
points of the dilates of a body and interpolates; its box scan bounds
the last coordinate by facets that ``facets_by_subsets`` finds, so it
shares no code with the double description or with the mixed-area
recursion that the package measures every volume by.  ``newton_number``
is Kouchnirenko's closed form for the Euler characteristic of a generic
fiber, from volumes that oracle counts.
``euler_ci_projective`` (Hirzebruch) and ``euler_ci_torus_of_simplices``
(Bernstein-Khovanskii) are closed forms in the degrees alone for
complete intersections whose Newton polytopes are dilated standard
simplices: integer series and symmetric functions, no polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import (combinations, combinations_with_replacement, permutations,
                       product)
from math import comb, factorial, gcd, prod
from typing import Sequence

from newtonzeta import (
    ContributionTrace,
    Covector,
    IntPoint,
    LatticeFrame,
    LatticePolytope,
    SystemSpec,
    ZetaProduct,
    candidate_covectors,
    dim,
    face,
    hull,
    lattice_volume,
    minkowski_sum,
    q_exponent,
    q_tilde_exponent,
    restrict_system,
    support_min,
)
from newtonzeta.lattice import _column_reduce, _dot, _span_coords
from newtonzeta.polytope import _canonical_pts
from newtonzeta.volumes import _reduce_to_frame


def _solve_in_basis(
    basis: Sequence[tuple[int, ...]], target: tuple[int, ...]
) -> list[Fraction] | None:
    """Solve sum_j x_j * basis[j] = target exactly; None when unsolvable."""
    r = len(basis)
    if r == 0:
        return [] if not any(target) else None
    n = len(target)
    # augmented system, unknowns are the basis coefficients
    aug = [[Fraction(basis[j][i]) for j in range(r)] + [Fraction(target[i])]
           for i in range(n)]
    pivots: list[int] = []
    row = 0
    for col in range(r):
        piv = next((i for i in range(row, n) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        lead = aug[row][col]
        aug[row] = [a / lead for a in aug[row]]
        for i in range(n):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    # consistency: remaining rows must have zero rhs
    for i in range(row, n):
        if aug[i][r] != 0:
            return None
    if len(pivots) < r:
        # basis vectors dependent; callers guarantee independence
        raise ValueError("frame basis is linearly dependent")
    sol = [Fraction(0)] * r
    for i, col in enumerate(pivots):
        sol[col] = aug[i][r]
    return sol


def _rank(rows: Sequence[tuple[int, ...]]) -> int:
    """Rank over Q by Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _abs_det(rows: Sequence[tuple[int, ...]]) -> int:
    """|det| of a square integer matrix: the product of the pivot gcds."""
    pivots, _ = _column_reduce(rows, len(rows))
    return prod(g for _, _, g in pivots) if len(pivots) == len(rows) else 0


def _vertices_by_rank(
    pts: Sequence[tuple[int, ...]],
    facets: Sequence[tuple[tuple[int, ...], int]],
) -> list[int]:
    """Indices of the vertices of a full-dimensional conv(pts), by ranks.

    A point is a vertex exactly when the normals of the facets through it
    span the whole space; incidence is recomputed from dot products.
    """
    d = len(pts[0])
    return [
        i for i, p in enumerate(pts)
        if _rank([a for a, b in facets
                  if sum(x * y for x, y in zip(a, p)) == b]) == d
    ]


def _simplex_facets_by_kernels(pts: Sequence[tuple[int, ...]]):
    """Facets of a full-dimensional simplex, as ``_dd`` gives them.

    Dual ray j spans the saturated kernel of the homogenized rows other
    than row j, oriented positive on row j; it is the facet missing point j.
    """
    rows = [(1,) + tuple(p) for p in pts]
    w = len(rows)
    facets = []
    for j in range(w):
        (ray,) = _column_reduce(rows[:j] + rows[j + 1:], w)[1]
        if sum(x * y for x, y in zip(rows[j], ray)) < 0:
            ray = tuple(-c for c in ray)
        facets.append((ray[1:], -ray[0]))
    return tuple(sorted(facets))


@lru_cache(maxsize=None)
def _signed_permutations(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    return tuple(((-1) ** sum(p[i] > p[j] for i, j in combinations(range(n), 2)), p)
                 for p in permutations(range(n)))


def _leibniz_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix as a sum over permutations."""
    return sum(sign * prod(r[j] for r, j in zip(rows, perm))
               for sign, perm in _signed_permutations(len(rows)))


def _bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: each step's 2 x 2 cross terms divide exactly by the
    previous pivot, so every entry stays an integer minor."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def permanent(rows: Sequence[Sequence[int]]) -> int:
    """Permanent of a square integer matrix as a sum over permutations:
    l! MV of l boxes prod_j [0, s_ij] in Z^l, s_i the rows."""
    return sum(prod(r[j] for r, j in zip(rows, perm))
               for perm in permutations(range(len(rows))))


def facets_by_subsets(pts: Sequence[tuple[int, ...]], d: int):
    """Vertices and facets of a full-dimensional conv(pts), as ``_dd``
    gives them, from the d-subsets of the points.

    Each d-subset spans a hyperplane whose normal is the vector of signed
    maximal minors of its difference rows; made primitive and oriented so
    that every point lies on its side, it is a facet when one side holds
    every point.  Every facet has d affinely independent points, so the
    subsets find them all.  A point is a vertex when the normals of the
    facets through it, read off each facet's tight set, have rank d.
    """
    found: dict[tuple[tuple[int, ...], int], frozenset[int]] = {}
    seen = set()
    for sub in combinations(range(len(pts)), d):
        base = pts[sub[0]]
        diffs = [tuple(x - y for x, y in zip(pts[i], base)) for i in sub[1:]]
        a = tuple((-1) ** j * _bareiss_det([r[:j] + r[j + 1:] for r in diffs])
                  for j in range(d))
        if not any(a):
            continue
        g = gcd(*a)
        a = tuple(c // g for c in a)
        level = sum(x * y for x, y in zip(a, base))
        if (a, level) in seen:
            continue
        seen.add((a, level))
        values = [sum(x * y for x, y in zip(a, p)) for p in pts]
        if min(values) == level:
            found[a, level] = frozenset(i for i, v in enumerate(values) if v == level)
        elif max(values) == level:
            found[tuple(-c for c in a), -level] = frozenset(
                i for i, v in enumerate(values) if v == level)
    vertices = tuple(i for i in range(len(pts))
                     if _rank([a for (a, _b), tight in found.items() if i in tight]) == d)
    return vertices, tuple(sorted(found))


def _independent_diffs(pts: Sequence[tuple[int, ...]]) -> Sequence[tuple[int, ...]]:
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


def _count_lattice_points(pts: Sequence[tuple[int, ...]]) -> int:
    """Number of lattice points in conv(pts), when pts span Q^n.

    The count does not depend on translation, so the box scan runs on
    ``_canonical_pts`` of the independent diffs.  Below full rank it
    counts the points of a projection onto independent coordinates, whose
    Ehrhart polynomial has the same degree: the degree is all the oracle
    needs of a lower-dimensional body.  Each point x of the bounding box
    on every coordinate but the last adds the length of the interval of
    last coordinates y that the ``facets_by_subsets`` facets leave:
    a.(x, y) >= b is a lower bound on y when a_y > 0, an upper one when
    a_y < 0, and a bound on x alone when a_y = 0.
    """
    reduced = _canonical_pts(_independent_diffs(pts))
    if not reduced[0]:
        return 1
    facets = [(a[:-1], a[-1], b)
              for a, b in facets_by_subsets(reduced, len(reduced[0]))[1]]
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


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive parts with a fixed total degree."""

    parts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        for p in self.parts:
            if not isinstance(p, int) or p < 1:
                raise ValueError("composition parts must be positive integers")

    @property
    def degree(self) -> int:
        return sum(self.parts)


def q_compositions(l: int, k: int) -> list[tuple[Composition, int]]:
    """All compositions of l into k positive parts, with their signs.

    Each composition carries the sign (-1)^(l-k) inherited from the
    series x/(1+x) = x - x^2 + x^3 - ...; the list is empty when k > l
    (no composition exists) and when k = 0 < l (the degree-l part of the
    empty product vanishes).  The degenerate l = k = 0 case contributes
    the single empty composition with sign +1.
    """
    if l < 0 or k < 0:
        raise ValueError("q_compositions arguments must be nonnegative")
    if k == 0:
        return [(Composition(()), 1)] if l == 0 else []
    if k > l:
        return []
    sign = (-1) ** (l - k)
    out = []
    for cuts in combinations(range(1, l), k - 1):
        bounds = (0,) + cuts + (l,)
        parts = tuple(bounds[i + 1] - bounds[i] for i in range(k))
        out.append((Composition(parts), sign))
    return out


def mixed_volume_by_subsets(
    polytopes: Sequence[LatticePolytope], frame: LatticeFrame
) -> int:
    """l! times the mixed volume, by inclusion-exclusion over 2^l subsets."""
    bodies = list(polytopes)
    l = frame.rank
    if len(bodies) != l:
        raise ValueError("number of bodies must equal the frame rank")
    if any(b.is_empty for b in bodies):
        return 0
    if l == 0:
        return 1
    sums: dict[int, LatticePolytope] = {}
    total = Fraction(0)
    for mask in range(1, 1 << l):
        low = mask & (-mask)
        rest = mask ^ low
        body = bodies[low.bit_length() - 1]
        sums[mask] = body if rest == 0 else minkowski_sum(sums[rest], body)
        size = mask.bit_count()
        total += (-1) ** (l - size) * lattice_volume(sums[mask], frame)
    assert total.denominator == 1, "mixed volume failed to be integral"
    return int(total)


def q_exponent_by_compositions(
    l: int, faces: Sequence[LatticePolytope], frame: LatticeFrame
) -> int:
    """Signed sum of mixed volumes over the compositions of degree l."""
    k = len(faces)
    if l == 0:
        return 1 if k == 0 else 0
    if frame.rank != l:
        raise ValueError("frame rank must equal the exponent degree")
    if k == 0 or k > l:
        return 0
    if any(f.is_empty for f in faces):
        return 0
    total = 0
    for comp, sign in q_compositions(l, k):
        bodies: list[LatticePolytope] = []
        for body, mult in zip(faces, comp.parts):
            bodies.extend([body] * mult)
        total += sign * mixed_volume_by_subsets(bodies, frame)
    return total


def stratum_frame(
    index_set: frozenset[int], alpha: Covector, ambient_dim: int
) -> LatticeFrame:
    """Saturated frame of {x : x_i = 0 outside I, alpha(x) = 0}, rank |I|-1."""
    rows = [
        tuple(1 if j == i else 0 for j in range(ambient_dim))
        for i in range(ambient_dim)
        if i not in index_set
    ]
    rows.append(alpha.comps)
    basis = _column_reduce(rows, ambient_dim)[1]
    frame = LatticeFrame(
        IntPoint((0,) * ambient_dim),
        tuple(IntPoint(b) for b in basis),
        ambient_dim,
    )
    assert frame.rank == len(index_set) - 1, "stratum frame has wrong rank"
    return frame


def stratum_traces(
    spec: SystemSpec, index_set: frozenset[int], sign: int | None
) -> list[ContributionTrace]:
    """One stratum's traces, skipping nothing: the deformation's at the
    origin (``sign`` +1) or at infinity (-1), or the objective's (None).

    The stratum is ``restrict_system``; its covectors are the public
    ``candidate_covectors``, the objective's power is ``support_min``, and
    each exponent is ``q_exponent`` or ``q_tilde_exponent`` of the faces
    ``face`` cuts, in the kernel frame of the covector's hyperplane.
    """
    rs = restrict_system(spec, index_set)
    l = len(rs.index_set) - 1
    bodies = list(rs.polytopes)
    traces = []
    if sign is None:
        obj = rs.objective_restriction
        if obj.is_empty:
            return []
        bodies.insert(0, obj)
        units = [IntPoint(tuple(int(j == i) for j in range(spec.n)))
                 for i in sorted(rs.index_set)]
        e0 = q_exponent(l + 1, bodies, LatticeFrame.span_of(units, spec.n))
        if e0:
            dims = tuple(dim(b) for b in bodies)
            traces.append(ContributionTrace(rs.index_set, None, 1, e0, dims))
    for alpha in candidate_covectors(bodies, rs.index_set, spec.n):
        m = sign * alpha.comps[-1] if sign else support_min(bodies[0], alpha)
        if m <= 0:
            continue
        faces = [face(P, alpha).face for P in bodies]
        frame = stratum_frame(rs.index_set, alpha, spec.n)
        if sign:
            e = q_exponent(l, faces, frame)
        else:
            e = q_tilde_exponent(l, faces[0], faces[1:], frame)
        if e:
            dims = tuple(dim(f) for f in faces)
            traces.append(ContributionTrace(rs.index_set, alpha, m, e, dims))
    return traces


def zeta_by_strata(
    spec: SystemSpec, scope: str, sign: int | None
) -> tuple[ZetaProduct, list[ContributionTrace]]:
    """The product and traces of ``zeta_deformation`` (``sign`` +1 at the
    origin, -1 at infinity) or ``zeta_polynomial`` (None), every stratum
    measured by ``stratum_traces``.  A deformation's strata hold the last
    coordinate, the parameter."""
    n = spec.n
    if scope == "torus":
        strata = [frozenset(range(n))]
    else:
        strata = [frozenset(c) for size in range(1, n + 1)
                  for c in combinations(range(n), size)
                  if sign is None or n - 1 in c]
    traces = [t for idx in strata for t in stratum_traces(spec, idx, sign)]
    total: dict[int, int] = {}
    for t in traces:
        total[t.m] = total.get(t.m, 0) + t.exponent
    return ZetaProduct.from_exponents(total), traces


# an expression tree: ("num", Fraction), ("var", i), ("neg", tree),
# ("add", [tree, ...]), ("mul", [tree, ...]) or ("pow", tree, k)
Expression = tuple


def expand_expression(tree: Expression, n: int) -> dict[tuple[int, ...], Fraction]:
    """The polynomial of an expression tree in n variables, as
    {exponents: nonzero coefficient}: every product of one term from each
    factor (k copies of the base for a power), collected at the end."""

    def terms(node: Expression) -> list[tuple[Fraction, tuple[int, ...]]]:
        kind = node[0]
        if kind == "num":
            return [(node[1], (0,) * n)]
        if kind == "var":
            return [(Fraction(1), tuple(int(j == node[1]) for j in range(n)))]
        if kind == "neg":
            return [(-c, e) for c, e in terms(node[1])]
        if kind == "add":
            return [t for child in node[1] for t in terms(child)]
        factors = ([terms(child) for child in node[1]] if kind == "mul"
                   else [terms(node[1])] * node[2])
        return [(prod((c for c, _e in choice), start=Fraction(1)),
                 tuple(map(sum, zip((0,) * n, *(e for _c, e in choice)))))
                for choice in product(*factors)]

    collected: dict[tuple[int, ...], Fraction] = {}
    for c, e in terms(tree):
        collected[e] = collected.get(e, Fraction(0)) + c
    return {e: c for e, c in collected.items() if c}


def on_stratum_by_norms(
    vertices: Sequence[tuple[int, ...]], idx: Sequence[int]
) -> list[tuple[int, ...]]:
    """The vertices in the coordinate subspace of I, on the coordinates of
    I: those whose coordinates on I carry their whole absolute 1-norm."""
    on_i = [tuple(v[i] for i in idx) for v in vertices]
    return [p for p, v in zip(on_i, vertices) if sum(map(abs, p)) == sum(map(abs, v))]


def newton_number(support: Sequence[tuple[int, ...]], n: int) -> int:
    """Kouchnirenko's Newton number of a convenient support without the
    origin (Invent. Math. 32, 1976): with D = conv(support and 0),

        nu = sum_I (-1)^(n-|I|) |I|! Vol_|I|(D on the coordinates of I),

    where I = {} adds (-1)^n.  D lies in the nonnegative orthant, so its
    part in the subspace of I is the hull of the points there.  A generic
    f of that support has a fiber f = t of Euler characteristic
    1 + (-1)^(n-1) nu."""
    nu = Fraction((-1) ** n)
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            pts = {tuple(p[i] for i in idx) for p in support
                   if not any(c for j, c in enumerate(p) if j not in idx)}
            body = hull([IntPoint(p) for p in pts | {(0,) * size}])
            vol = lattice_point_volume_oracle(body, LatticeFrame.standard(size))
            nu += (-1) ** (n - size) * factorial(size) * vol
    assert nu.denominator == 1, "Newton number failed to be an integer"
    return int(nu)


def euler_ci_projective(degrees: Sequence[int], m: int) -> int:
    """Hirzebruch's Euler characteristic of a smooth complete intersection
    of the given degrees in P^m:

        prod d_i [h^(m-k)] (1 + h)^(m+1) / prod (1 + d_i h),

    with k = len(degrees); 0 when k > m, where the intersection is empty.
    Dividing a series by 1 + d h replaces each coefficient c_j, in order,
    by c_j - d c_(j-1)."""
    top = m - len(degrees)
    if top < 0:
        return 0
    series = [comb(m + 1, j) for j in range(top + 1)]
    for d in degrees:
        for j in range(1, top + 1):
            series[j] -= d * series[j - 1]
    return prod(degrees) * series[top]


def euler_ci_torus_of_simplices(degrees: Sequence[int], n: int) -> int:
    """Bernstein-Khovanskii's Euler characteristic of a nondegenerate
    complete intersection in the n-torus whose Newton polytopes are the
    simplices d_i * Delta_n:

        (-1)^(n-k) prod d_i h_(n-k)(d_1, ..., d_k),

    h_j the complete homogeneous symmetric polynomial of degree j."""
    k = len(degrees)
    h = sum(prod(c) for c in combinations_with_replacement(degrees, n - k))
    return (-1) ** (n - k) * prod(degrees) * h
