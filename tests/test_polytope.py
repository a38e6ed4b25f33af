"""Polytope geometry: hulls, faces, sums, restrictions, facet normals."""

import random
from functools import lru_cache
from itertools import product
from math import gcd
from operator import add, mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from newtonzeta import (
    Covector,
    IntPoint,
    LatticePolytope,
    dim,
    face,
    facet_normals,
    hull,
    minkowski_sum,
    restrict_to_index_set,
    support_min,
)
from newtonzeta import lattice, polytope
from newtonzeta.lattice import _column_reduce
from newtonzeta.polytope import _dd
from tests.conftest import random_polytope
from tests.oracle import (
    _independent_diffs,
    _rank,
    _simplex_facets_by_kernels,
    _vertices_by_rank,
    facets_by_subsets,
)


def P(*coords):
    return hull([IntPoint(tuple(c)) for c in coords])


def test_hull_drops_interior_edge_point():
    h = P((0, 0), (1, 0), (2, 0), (1, 1))
    assert {v.coords for v in h.vertices} == {(0, 0), (2, 0), (1, 1)}


def test_hull_single_point_and_empty():
    assert {v.coords for v in P((5, 7)).vertices} == {(5, 7)}
    e = hull([], ambient_dim=2)
    assert e.is_empty and e.ambient_dim == 2


def test_hull_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="mixed dimensions"):
        hull([IntPoint((0, 0)), IntPoint((0, 0, 0))])


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)),
    min_size=1, max_size=9,
))
def test_hull_invariant_under_permutation_and_duplication(points):
    pts = [IntPoint(p) for p in points]
    base = hull(pts)
    shuffled = hull(list(reversed(pts)) + pts)
    assert base == shuffled


def test_translates_share_one_sweep(monkeypatch):
    # _dd is keyed on the canonical set: the hulls of a set and of its
    # translate add one memo entry between them, and so do the facet
    # normals of the two hulls, with the vertices still each set's own
    monkeypatch.setattr(polytope, "_dd", lru_cache(maxsize=8)(_dd.__wrapped__))
    rng = random.Random(28)
    pts = {tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(12)}
    shift = (7, -3, 2)
    A = hull([IntPoint(p) for p in pts])
    B = hull([IntPoint(tuple(map(add, p, shift))) for p in pts])
    assert polytope._dd.cache_info().currsize == 1
    assert B.raw_vertices() == [tuple(map(add, v, shift)) for v in A.raw_vertices()]
    assert dim(A) == 3 and len(A.vertices) < len(pts)
    assert [r.normal for r in facet_normals(A)] == [r.normal for r in facet_normals(B)]
    assert polytope._dd.cache_info().currsize == 2


def test_flat_hull_memoizes_its_own_set_alone(monkeypatch):
    # a flat set is swept in its own coordinates, modulo the kernel of its
    # one reduction: collinear and coplanar points in Z^3 add one memo
    # entry each, and a cold sweep reduces once
    calls = []

    def counted(rows, n):
        calls.append(n)
        return _column_reduce(rows, n)

    monkeypatch.setattr(lattice, "_column_reduce", counted)
    monkeypatch.setattr(polytope, "_column_reduce", counted)
    rng = random.Random(61)
    for rank in (1, 2):
        calls.clear()
        origin = [rng.randint(-50, 50) for _ in range(3)]
        dirs = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(rank)]
        pts = set()
        for _ in range(8):
            steps = [rng.randint(-5, 5) for _ in dirs]
            pts.add(tuple(o + sum(map(mul, steps, col)) for o, col in zip(origin, zip(*dirs))))
        cached = _dd.cache_info()
        flat = hull([IntPoint(p) for p in pts])
        assert calls == [4]
        assert dim(flat) == rank
        after = _dd.cache_info()
        assert (after.currsize, after.misses) == (cached.currsize + 1, cached.misses + 1)
        assert hull([IntPoint(p) for p in pts]) == flat
        assert _dd.cache_info().hits == after.hits + 1


def test_dim_examples():
    assert dim(P((3, 4))) == 0
    assert dim(P((0, 0), (1, 1))) == 1
    assert dim(hull([], ambient_dim=2)) == -1
    assert dim(P((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))) == 2


def test_support_min_examples():
    seg = P((0, 0), (1, 1))
    assert support_min(seg, Covector((-1, 1))) == 0
    assert support_min(P((1, 1)), Covector((1, 1))) == 2
    square = P((0, 0), (1, 0), (0, 1), (1, 1))
    assert support_min(square, Covector((1, 0))) == 0
    with pytest.raises(ValueError, match="empty"):
        support_min(hull([], ambient_dim=2), Covector((1, 0)))


def test_face_examples():
    seg = P((0, 0), (1, 1))
    rec = face(seg, Covector((1, 1)))
    assert {v.coords for v in rec.face.vertices} == {(0, 0)}
    assert rec.min_value == 0

    rec = face(seg, Covector((-1, 1)))
    assert rec.face == seg  # constant on the segment

    tri = P((0, 0), (2, 0), (1, 1))
    rec = face(tri, Covector((0, 1)))
    assert {v.coords for v in rec.face.vertices} == {(0, 0), (2, 0)}


def test_face_idempotent():
    rng = random.Random(31)
    for _ in range(25):
        Q = random_polytope(rng, 3, hi=4)
        a = Covector(tuple(rng.randint(-3, 3) for _ in range(3)))
        if a.is_zero():
            continue
        f1 = face(Q, a).face
        assert face(f1, a).face == f1


def test_minkowski_sum_examples():
    sq = minkowski_sum(P((0, 0), (1, 0)), P((0, 0), (0, 1)))
    assert {v.coords for v in sq.vertices} == {(0, 0), (1, 0), (0, 1), (1, 1)}

    tri = P((0, 0), (2, 0), (1, 1))
    shifted = minkowski_sum(tri, P((3, 5)))
    assert shifted == P((3, 5), (5, 5), (4, 6))

    assert minkowski_sum(tri, hull([], ambient_dim=2)).is_empty


def test_face_and_support_of_sum_split():
    rng = random.Random(17)
    for _ in range(30):
        A = random_polytope(rng, 2, hi=4)
        B = random_polytope(rng, 2, hi=4)
        a = Covector(tuple(rng.randint(-3, 3) for _ in range(2)))
        if a.is_zero():
            continue
        S = minkowski_sum(A, B)
        assert support_min(S, a) == support_min(A, a) + support_min(B, a)
        assert face(S, a).face == minkowski_sum(face(A, a).face, face(B, a).face)


def test_restrict_to_index_set_examples():
    tri = P((1, 0), (0, 1), (2, 1))  # z1 + z2(1 + z1^2)
    only2 = restrict_to_index_set(tri, {1})
    assert {v.coords for v in only2.vertices} == {(0, 1)}
    only1 = restrict_to_index_set(tri, {0})
    assert {v.coords for v in only1.vertices} == {(1, 0)}

    square = P((0, 0), (1, 0), (0, 1), (1, 1))
    origin = restrict_to_index_set(square, set())
    assert {v.coords for v in origin.vertices} == {(0, 0)}

    assert restrict_to_index_set(square, {0, 1}) == square


def test_restrict_requires_nonnegative_vertices():
    shifted = P((-1, 0), (0, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        restrict_to_index_set(shifted, {0})


def test_facet_normals_examples(monkeypatch):
    square = P((0, 0), (1, 0), (0, 1), (1, 1))
    normals = {rec.normal.comps for rec in facet_normals(square)}
    assert normals == {(1, 0), (0, 1), (-1, 0), (0, -1)}

    tri = P((0, 0), (1, 0), (0, 1))
    normals = {rec.normal.comps for rec in facet_normals(tri)}
    assert normals == {(1, 0), (0, 1), (-1, -1)}

    for flat in (P((0, 0), (1, 1)), hull([], ambient_dim=2),
                 P((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0))):
        with pytest.raises(ValueError, match="not full-dimensional"):
            facet_normals(flat)
    assert facet_normals(P(())) == []

    # a cold facet_normals runs the one reduction of its DD
    calls = []

    def counted(rows, n):
        calls.append(n)
        return _column_reduce(rows, n)

    monkeypatch.setattr(polytope, "_dd", lru_cache(maxsize=8)(_dd.__wrapped__))
    monkeypatch.setattr(lattice, "_column_reduce", counted)
    monkeypatch.setattr(polytope, "_column_reduce", counted)
    tet = LatticePolytope(tuple(IntPoint(p) for p in
                                ((0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 5))), 3)
    assert len(facet_normals(tet)) == 4
    assert calls == [4]


def test_facet_records_are_consistent():
    rng = random.Random(77)
    for _ in range(20):
        d = rng.choice([2, 3, 4])
        Q = random_polytope(rng, d, hi=3, npts=rng.randint(d + 1, d + 4))
        if dim(Q) != d:
            continue
        records = facet_normals(Q)
        covered = set()
        for rec in records:
            assert rec.min_value == support_min(Q, rec.normal)
            assert rec.face == face(Q, rec.normal).face
            assert dim(rec.face) == d - 1
            covered.update(v.coords for v in rec.face.vertices)
        # every vertex is on the boundary, hence on some facet
        assert covered == {v.coords for v in Q.vertices}


def _barycentric_in_hull(p, subset, d):
    """Exact feasibility of p as a convex combination of subset points."""
    from fractions import Fraction

    m = len(subset)
    aug = [[Fraction(subset[j][c]) for j in range(m)] + [Fraction(p[c])]
           for c in range(d)]
    aug.append([Fraction(1)] * m + [Fraction(1)])
    piv_cols = []
    rr = 0
    for c in range(m):
        pr = next((i for i in range(rr, d + 1) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[rr], aug[pr] = aug[pr], aug[rr]
        lead = aug[rr][c]
        aug[rr] = [x / lead for x in aug[rr]]
        for i in range(d + 1):
            if i != rr and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[rr])]
        piv_cols.append(c)
        rr += 1
    if any(all(aug[i][c] == 0 for c in range(m)) and aug[i][m] != 0
           for i in range(d + 1)):
        return False
    lam = [0] * m
    for i, c in enumerate(piv_cols):
        lam[c] = aug[i][m]
    if any(x < 0 for x in lam) or sum(lam) != 1:
        return False
    return all(
        sum(lam[j] * subset[j][c] for j in range(m)) == p[c] for c in range(d)
    )


def _brute_force_extremes(pts, d):
    """p is extreme iff p is in no (d+1)-point hull of the others."""
    from itertools import combinations

    out = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        size = min(len(others), d + 1)
        inside = any(
            _barycentric_in_hull(p, T, d) for T in combinations(others, size)
        )
        if not inside:
            out.append(p)
    return sorted(out)


def test_hull_matches_brute_force_caratheodory_oracle():
    rng = random.Random(314)
    for _ in range(25):
        d = rng.choice([2, 2, 3, 3])
        pts = sorted({
            tuple(rng.randint(0, 4) for _ in range(d))
            for _ in range(rng.randint(3, 8))
        })
        mine = sorted(v.coords for v in hull([IntPoint(p) for p in pts]).vertices)
        assert mine == _brute_force_extremes(pts, d)


def test_facet_normals_are_primitive_and_duplicate_free():
    rng = random.Random(123)
    for _ in range(15):
        Q = random_polytope(rng, 3, hi=4, npts=rng.randint(4, 8))
        if dim(Q) != 3:
            continue
        records = facet_normals(Q)
        comps = [rec.normal.comps for rec in records]
        assert len(set(comps)) == len(comps)
        for rec in records:
            assert gcd(*rec.normal.comps) == 1


def _incidence_cases():
    """Seeded point sets in Z^n, n = 1..5, with non-vertex points.

    Each set doubles random points of Z^k and adds sums of pairs of them
    (midpoints of the doubled points), then embeds Z^k into Z^n by a random
    integer map; k < n gives lower-dimensional sets.
    """
    rng = random.Random(2718)
    for n in range(1, 6):
        for _ in range(12):
            k = n if rng.random() < 0.6 else rng.randint(0, n - 1)
            base = [tuple(rng.randint(0, 3) for _ in range(k))
                    for _ in range(rng.randint(k + 1, k + 5))]
            pts = [tuple(2 * c for c in p) for p in base]
            pts += [tuple(map(sum, zip(rng.choice(base), rng.choice(base))))
                    for _ in range(rng.randint(1, 4))]
            embed = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            yield n, sorted({
                tuple(sum(e * x for e, x in zip(row, p)) for row in embed)
                for p in pts
            })


def test_dd_vertices_and_facets_match_recomputed_incidence():
    # vertices by the rank of the facet normals through each point, and
    # each facet's level the least value of its normal, attained on a face
    # of dimension d - 1
    dims = set()
    for n, uniq in _incidence_cases():
        reduced = _independent_diffs(uniq)
        d = len(reduced[0])
        dims.add((n, d))
        if d == 0:
            # one point, which in Z^1 is a hyperplane with two sides
            sides = (((-1,), -uniq[0][0]), ((1,), uniq[0][0])) if n == 1 else ()
            assert _dd(tuple(uniq)) == ((0,), sides)
            continue
        verts, facets = _dd(tuple(reduced))
        want = _vertices_by_rank(reduced, facets)
        assert verts == tuple(want)
        for a, b in facets:
            values = [sum(x * y for x, y in zip(a, p)) for p in reduced]
            assert min(values) == b
            tight = [p for p, v in zip(reduced, values) if v == b]
            assert _rank([tuple(x - y for x, y in zip(p, tight[0])) for p in tight]) == d - 1
        hull_verts = hull([IntPoint(p) for p in uniq]).vertices
        assert tuple(v.coords for v in hull_verts) == tuple(uniq[i] for i in want)
        if d < n:
            # a flat set has its hyperplane's two sides, constant on it
            verts, facets = _dd(tuple(uniq))
            assert verts == tuple(want) and len(facets) == (2 if d == n - 1 else 0)
            assert all(sum(map(mul, a, p)) == b for a, b in facets for p in uniq)
    assert {d for _, d in dims} == {0, 1, 2, 3, 4, 5}
    assert any(d < n for n, d in dims)


def test_dd_gives_a_flat_set_the_two_sides_of_its_hyperplane():
    # corank one: exactly +-u, u primitive and constant on the set, and u
    # the kernel of its differences; other ranks get no new facets
    rng = random.Random(4242)
    cases = [(1, [(5,)]), (1, [(-2,)])]
    for d in range(1, 5):
        for _ in range(20):
            k = rng.randint(max(0, d - 3), d)
            base = [tuple(rng.randint(-2, 2) for _ in range(k))
                    for _ in range(rng.randint(1, k + 3))]
            embed = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(d)]
            shift = [rng.randint(-3, 3) for _ in range(d)]
            cases.append((d, sorted({tuple(s + sum(map(mul, row, p))
                                           for row, s in zip(embed, shift))
                                     for p in base})))
    ranks = set()
    for d, pts in cases:
        diffs = [tuple(x - y for x, y in zip(p, pts[0])) for p in pts]
        r = _rank(diffs)
        ranks.add((d, r))
        verts, facets = _dd(tuple(pts))
        if r == d:
            assert (verts, facets) == facets_by_subsets(pts, d)
        elif r == d - 1:
            (u,) = _column_reduce(diffs, d)[1]
            assert gcd(*u) == 1
            b = sum(map(mul, u, pts[0]))
            neg = tuple(-c for c in u)
            assert facets == tuple(sorted([(u, b), (neg, -b)]))
            assert all(sum(map(mul, a, p)) == c for a, c in facets for p in pts)
        else:
            assert facets == ()
    assert {(1, 0), (2, 1), (3, 2), (4, 3), (3, 1), (4, 2)} <= ranks
    assert {(d, d) for d in range(1, 5)} <= ranks


def test_dd_start_cone_matches_one_kernel_per_facet(monkeypatch):
    # a simplex is its own start cone, so its facets are the start rays
    rng = random.Random(8080)
    gcds = set()
    for d in range(1, 6):
        for _ in range(10):
            pts = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(d + 1)]
            pivots = _column_reduce([(1,) + p for p in pts], d + 1)[0]
            if len(pivots) < d + 1:
                continue
            gcds.update(g for _, _, g in pivots)
            want = (tuple(range(d + 1)), _simplex_facets_by_kernels(pts))
            assert _dd.__wrapped__(tuple(pts)) == want
    assert max(gcds) > 1

    # the start rays come from the reduction that picks the start rows,
    # and a flat simplex (corank 1, then 2) is all vertices with no rays
    calls = []

    def counted(name, f):
        def call(*args):
            calls.append(name)
            return f(*args)
        return call

    for name in ("_column_reduce", "_triangular_inverse"):
        f = getattr(lattice, name)
        monkeypatch.setattr(lattice, name, counted(name, f))
        monkeypatch.setattr(polytope, name, counted(name, f))
    simplex = ((0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 5))
    assert _dd.__wrapped__(simplex) == ((0, 1, 2, 3), _simplex_facets_by_kernels(simplex))
    assert calls == ["_column_reduce", "_triangular_inverse"]
    for flat, sides in ((((0, 0, 0), (2, 0, 0), (0, 3, 0)), (((0, 0, -1), 0), ((0, 0, 1), 0))),
                        (((0, 0, 0), (1, 2, 3)), ())):
        calls.clear()
        assert _dd.__wrapped__(flat) == (tuple(range(len(flat))), sides)
        assert calls == ["_column_reduce"]


@st.composite
def _minkowski_point_sets(draw):
    """The sum of 2-3 random small bodies in Z^d, d = 2..4: full-dimensional,
    with many points inside, and small enough for the subset oracle."""
    d = draw(st.integers(2, 4))
    point = st.tuples(*[st.integers(0, 2)] * d)
    bodies = draw(st.lists(st.lists(point, min_size=2, max_size=4, unique=True),
                           min_size=2, max_size=3))
    pts = sorted({tuple(map(sum, zip(*combo))) for combo in product(*bodies)})
    assume(len(pts) <= (40, 30, 20)[d - 2])
    assume(_rank([tuple(x - y for x, y in zip(p, pts[0])) for p in pts]) == d)
    return d, tuple(pts), draw(st.permutations(range(len(pts))))


def test_dd_matches_the_subset_oracle_in_any_input_order():
    # the sweep inserts the points after its start cone farthest first,
    # and no output depends on that order: the same set, shuffled, gives
    # the same facets, with vertex indices that map back
    reached = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_minkowski_point_sets())
    def check(case):
        d, pts, perm = case
        want = facets_by_subsets(pts, d)
        assert _dd.__wrapped__(pts) == want
        verts, facets = _dd.__wrapped__(tuple(pts[i] for i in perm))
        assert (tuple(sorted(perm[i] for i in verts)), facets) == want
        if len(pts) - (d + 1) >= 2 and len(want[0]) < len(pts):
            reached.add(d)

    check()
    assert reached == {2, 3, 4}


@st.composite
def _corners_with_inner_points(draw):
    """The corner simplex conv(0, k e_1, ..., k e_d), k = 2 or 3, d = 5 or 6,
    and 1-4 points of {0,1}^d: one near 0 can be farther from the centroid
    than 0 and still inside the simplex, so it cuts and 0 swallows it;
    full-dimensional and small enough for the subset oracle."""
    d, k = draw(st.sampled_from((5, 6))), draw(st.sampled_from((2, 3)))
    extra = draw(st.lists(st.tuples(*[st.integers(0, 1)] * d), min_size=1, max_size=4))
    corner = [(0,) * d] + [tuple(k * (i == j) for j in range(d)) for i in range(d)]
    pts = tuple(sorted(set(corner + extra)))
    return d, pts, draw(st.permutations(range(len(pts))))


def test_dd_matches_the_subset_oracle_in_five_and_six_dimensions(monkeypatch):
    # in any input order; the reduction is watched for the sweep's row
    # order and start rows, and the oracle says which later rows cut: a
    # row in the hull of the rows swept before it cuts nothing, and a row
    # that cuts may still be swallowed by a later one
    seen = []

    def watched(rows, n):
        seen.append((rows, _column_reduce(rows, n)[0]))
        return _column_reduce(rows, n)

    monkeypatch.setattr(polytope, "_column_reduce", watched)
    reached = set()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_corners_with_inner_points())
    def check(case):
        d, pts, perm = case
        want = facets_by_subsets(pts, d)
        seen.clear()
        assert _dd.__wrapped__(pts) == want
        verts, facets = _dd.__wrapped__(tuple(pts[i] for i in perm))
        assert (tuple(sorted(perm[i] for i in verts)), facets) == want
        vertices = {pts[i] for i in want[0]}
        for rows, pivots in seen:
            start = {i for i, _col, _g in pivots}
            swept = [rows[i][1:] for i in sorted(start)]
            for t, row in enumerate(rows):
                if t not in start:
                    p = row[1:]
                    if p not in vertices:
                        cuts = len(swept) in facets_by_subsets(swept + [p], d)[0]
                        reached.add((d, "swallowed" if cuts else "cuts nothing"))
                    swept.append(p)

    check()
    assert reached == {(d, kind) for d in (5, 6) for kind in ("cuts nothing", "swallowed")}


@st.composite
def _embedded_point_sets(draw):
    """A full-dimensional Q in Z^k (one point when k = 0), an integer
    affine map x -> A x + s of rank k into Z^n with k < n <= 5, and an
    order for Q's image."""
    k = draw(st.integers(0, 4))
    n = draw(st.integers(k + 1, 5))
    q = sorted(set(draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k),
                                 min_size=k + 1, max_size=(9, 9, 9, 8, 7)[k]))))
    assume(_rank([tuple(x - y for x, y in zip(p, q[0])) for p in q]) == k)
    a = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k), min_size=n, max_size=n))
    assume(_rank(a) == k)
    s = draw(st.tuples(*[st.integers(-5, 5)] * n))
    return k, n, q, a, s, draw(st.permutations(range(len(q))))


def test_dd_sweeps_a_flat_set_as_its_preimage():
    # a flat set is the image of a full-dimensional one: its vertices are
    # the images of the preimage's vertices by the subset oracle, and its
    # facets are its hyperplane's two sides at corank one, none below
    reached = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_embedded_point_sets())
    def check(case):
        k, n, q, a, s, perm = case
        image = [tuple(c + sum(map(mul, row, p)) for row, c in zip(a, s)) for p in q]
        pts = tuple(image[i] for i in perm)
        verts, facets = _dd.__wrapped__(pts)
        want = facets_by_subsets(q, k)[0] if k else (0,)
        assert sorted(pts[i] for i in verts) == sorted(image[i] for i in want)
        if n - k == 1:
            (u, b), (v, c) = facets
            assert v == tuple(-x for x in u) and c == -b and gcd(*u) == 1
            assert all(sum(map(mul, u, p)) == b for p in pts)
        else:
            assert facets == ()
        reached.add((k, min(n - k, 2)))

    check()
    assert reached == {(k, c) for k in range(5) for c in (1, 2) if k + c <= 5}


def test_dd_inserts_far_points_first(monkeypatch):
    # the outputs do not depend on the row order, so the work pins it: on
    # the 256-point sum of two 4-boxes (16 vertices) index order makes 254
    # fresh rays, far points after an index-order start cone 21, and far
    # points first, the start cone among them, 14
    fresh = []

    def counted(v):
        fresh.append(v)
        return primitive(v)

    primitive = polytope._primitive
    monkeypatch.setattr(polytope, "_primitive", counted)
    boxes = [list(product(*[(0, x) for x in sides]))
             for sides in ((1, 2, 3, 1), (2, 1, 1, 3))]
    pts = tuple(sorted({tuple(map(sum, zip(p, q))) for p, q in product(*boxes)}))
    assert len(pts) == 256
    verts, facets = _dd.__wrapped__(pts)
    assert len(verts) == 16 and len(facets) == 8
    assert len(fresh) == 14


def test_canonical_points_of_a_sum_of_canonical_sets_are_the_sorted_sum(monkeypatch):
    # a canonical set's least point is the origin, so a sum of canonical
    # sets has the origin as its least point too and needs no translation
    subs = []

    def counted(p, q):
        subs.append(q)
        return sub(p, q)

    sub = polytope._sub
    monkeypatch.setattr(polytope, "_sub", counted)
    rng = random.Random(3232)
    for _ in range(40):
        d = rng.randint(1, 4)
        bodies = [polytope._canonical_pts(tuple(rng.randint(-3, 3) for _ in range(d))
                                          for _ in range(rng.randint(1, 4)))
                  for _ in range(rng.randint(2, 3))]
        subs.clear()
        pts = [tuple(map(sum, zip(*combo))) for combo in product(*bodies)]
        assert polytope._canonical_pts(pts) == tuple(sorted(set(pts)))
        assert subs == []
    moved = [(1, 2), (0, 5), (3, -1)]
    assert polytope._canonical_pts(moved) == ((0, 0), (1, -3), (3, -6))
    assert subs == [(0, 5)] * 3
