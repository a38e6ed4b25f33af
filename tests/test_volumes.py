"""Volumes, mixed volumes, and the lattice-point counting oracle."""

import random
from fractions import Fraction
from itertools import product
from math import factorial, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from newtonzeta import (
    IntPoint,
    LatticeFrame,
    dim,
    hull,
    lattice_point_volume_oracle,
    lattice_volume,
    minkowski_sum,
    mixed_volume_of,
    q_exponent,
)
from newtonzeta import volumes
from newtonzeta.polytope import _dd
from newtonzeta.volumes import _count_lattice_points
from perfbench.checks import bezout
from tests.conftest import random_polytope
from tests.oracle import _rank, facets_by_subsets, mixed_volume_by_subsets, permanent


def P(*coords):
    return hull([IntPoint(tuple(c)) for c in coords])


def seg(a, b):
    return P(a, b)


def test_unit_simplex_volume_is_one_over_factorial():
    for l in (1, 2, 3, 4):
        pts = [tuple(0 for _ in range(l))]
        for i in range(l):
            pts.append(tuple(1 if j == i else 0 for j in range(l)))
        simplex = P(*pts)
        assert lattice_volume(simplex, LatticeFrame.standard(l)) == Fraction(1, factorial(l))


def test_segment_lattice_length_in_own_frame():
    s = seg((0, 0), (1, 1))
    frame = LatticeFrame.span_of([IntPoint((1, 1))], 2)
    assert lattice_volume(s, frame) == 1

    long = seg((0, 0), (3, 3))
    assert lattice_volume(long, frame) == 3


def test_point_in_one_dimensional_frame_has_zero_volume():
    frame = LatticeFrame.span_of([IntPoint((1, 0))], 2)
    assert lattice_volume(P((2, 0)), frame) == 0


def test_volume_rejects_bodies_outside_frame():
    frame = LatticeFrame.span_of([IntPoint((1, 0))], 2)
    with pytest.raises(ValueError, match="outside frame span"):
        lattice_volume(seg((0, 0), (0, 1)), frame)


def test_volumes_reject_bodies_of_the_wrong_dimension():
    tri2 = P((0, 0), (1, 0), (0, 1))
    tri4 = P((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0))
    plane = LatticeFrame.span_of([IntPoint((1, 0, 0)), IntPoint((0, 1, 0))], 3)
    calls = [
        lambda: lattice_volume(tri2, LatticeFrame.standard(3)),
        lambda: mixed_volume_of([tri2, tri2], plane),
        lambda: q_exponent(2, [tri4], LatticeFrame.standard(2)),
        lambda: lattice_point_volume_oracle(tri4, LatticeFrame.standard(2)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="polytope dimension does not match frame"):
            call()


def test_mixed_volume_of_transverse_segments():
    frame = LatticeFrame.standard(2)
    assert mixed_volume_of([seg((0, 0), (1, 0)), seg((0, 0), (0, 1))], frame) == 1


def test_mixed_volume_degenerate_repeat_segment():
    frame = LatticeFrame.standard(2)
    s = seg((0, 0), (1, 0))
    assert mixed_volume_of([s, s], frame) == 0


def test_mixed_volume_diagonal_unit_triangle():
    frame = LatticeFrame.standard(2)
    tri = P((0, 0), (1, 0), (0, 1))
    assert mixed_volume_of([tri, tri], frame) == 1  # 2! * (1/2)


def test_mixed_volume_empty_body_is_zero():
    frame = LatticeFrame.standard(2)
    e = hull([], ambient_dim=2)
    assert mixed_volume_of([e, P((0, 0), (1, 0))], frame) == 0


def test_counting_oracle_examples():
    square = P((0, 0), (1, 0), (0, 1), (1, 1))
    assert _count_lattice_points([(0, 0), (1, 0), (0, 1), (1, 1)]) == 4
    assert _count_lattice_points([(0, 0), (2, 0), (0, 2), (2, 2)]) == 9
    frame = LatticeFrame.standard(2)
    assert lattice_point_volume_oracle(square, frame) == 1

    simplex = P((0, 0), (1, 0), (0, 1))
    assert _count_lattice_points([(0, 0), (1, 0), (0, 1)]) == 3
    assert _count_lattice_points([(0, 0), (2, 0), (0, 2)]) == 6
    assert lattice_point_volume_oracle(simplex, frame) == Fraction(1, 2)


def test_counting_oracle_point_is_degree_zero():
    frame = LatticeFrame.span_of([IntPoint((1, 0))], 2)
    assert lattice_point_volume_oracle(P((3, 0)), frame) == 0


# counts recorded with the Fourier-Motzkin enumeration the interval scan
# replaced; a lower-dimensional set counts the points of its projection
# onto independent coordinates (the segment to (5, -6) holds 4, counts 7)
_COUNTS = [
    ([(4,)], 1),
    ([(-3,), (5,)], 9),
    ([(-2, -1), (3, 0), (0, 4)], 14),
    ([(-2, -2), (2, -2), (2, 2), (-2, 2), (0, 3)], 26),
    ([(0, 0), (2, 4)], 3),
    ([(-1, 3), (5, -6)], 7),
    ([(1, 1, 1)], 1),
    ([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)], 20),
    ([(-1, -1, -1), (1, -1, 0), (0, 2, -1), (1, 1, 2), (-2, 0, 1)], 13),
    ([(0, 0, 0), (2, 1, 0), (1, 3, 0), (-1, 2, 0)], 8),
    ([(1, 0, -1), (3, 2, 1), (-1, 4, -1)], 10),
    ([(0, 0, 0), (4, 2, -2)], 5),
    ([(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)], 15),
    ([(-1, 0, 1, 0), (1, 1, 0, -1), (0, -1, 1, 1), (1, 0, -1, 1), (0, 1, 1, 1),
      (-1, -1, 0, 0)], 8),
    ([(0, 0, 0, 0), (1, 2, 0, 1), (2, -1, 1, 0), (-1, 1, 1, 2)], 4),
]


def test_counting_oracle_pinned_counts():
    assert [_count_lattice_points(pts) for pts, _ in _COUNTS] == [c for _, c in _COUNTS]


@st.composite
def _full_point_sets(draw):
    """3-8 points in [-3, 3]^d, d = 1..3, spanning Q^d."""
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                        min_size=d + 1, max_size=8, unique=True))
    assume(_rank([tuple(x - y for x, y in zip(p, pts[0])) for p in pts]) == d)
    return d, pts


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_full_point_sets())
def test_counting_matches_a_box_scan_against_subset_facets(case):
    # every point of the bounding box tested against the facets of the
    # d-subset oracle, with no double description involved
    d, pts = case
    facets = facets_by_subsets(sorted(pts), d)[1]
    box = product(*[range(min(c), max(c) + 1) for c in zip(*pts)])
    want = sum(all(sum(map(mul, a, x)) >= b for a, b in facets) for x in box)
    assert _count_lattice_points(pts) == want


def test_volume_agrees_with_counting_oracle_on_random_polytopes():
    rng = random.Random(55)
    for _ in range(40):
        d = rng.choice([1, 2, 2, 3])
        Q = random_polytope(rng, d, hi=4)
        frame = LatticeFrame.standard(d)
        assert lattice_volume(Q, frame) == lattice_point_volume_oracle(Q, frame)


def test_mixed_volume_symmetry_and_translation():
    rng = random.Random(66)
    for _ in range(15):
        d = rng.choice([2, 3])
        frame = LatticeFrame.standard(d)
        bodies = [random_polytope(rng, d, hi=3) for _ in range(d)]
        v = mixed_volume_of(bodies, frame)
        assert v >= 0
        perm = list(bodies)
        rng.shuffle(perm)
        assert mixed_volume_of(perm, frame) == v
        shift = IntPoint(tuple(rng.randint(-4, 4) for _ in range(d)))
        moved = hull([p + shift for p in bodies[0].vertices])
        assert mixed_volume_of([moved] + bodies[1:], frame) == v


def test_mixed_volume_multilinearity():
    rng = random.Random(44)
    frame = LatticeFrame.standard(2)
    for _ in range(12):
        A = random_polytope(rng, 2, hi=3)
        B = random_polytope(rng, 2, hi=3)
        S = random_polytope(rng, 2, hi=3)
        lhs = mixed_volume_of([minkowski_sum(A, B), S], frame)
        rhs = mixed_volume_of([A, S], frame) + mixed_volume_of([B, S], frame)
        assert lhs == rhs


def test_mixed_volume_diagonal_property():
    rng = random.Random(33)
    for _ in range(10):
        d = rng.choice([2, 3])
        frame = LatticeFrame.standard(d)
        Q = random_polytope(rng, d, hi=3)
        assert mixed_volume_of([Q] * d, frame) == factorial(d) * lattice_volume(Q, frame)


def _random_unimodular(rng, n):
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(8):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for r in range(n):
            mat[r][i] += c * mat[r][j]
    return mat


def test_mixed_volume_unimodular_invariance():
    rng = random.Random(22)
    for _ in range(10):
        d = 2
        frame = LatticeFrame.standard(d)
        bodies = [random_polytope(rng, d, hi=3) for _ in range(d)]
        v = mixed_volume_of(bodies, frame)
        U = _random_unimodular(rng, d)

        def apply(P):
            pts = [
                IntPoint(tuple(
                    sum(U[r][c] * vtx.coords[c] for c in range(d))
                    for r in range(d)
                ))
                for vtx in P.vertices
            ]
            return hull(pts)

        assert mixed_volume_of([apply(Q) for Q in bodies], frame) == v


def test_mixed_volume_validates_arity():
    frame = LatticeFrame.standard(2)
    with pytest.raises(ValueError, match="frame rank"):
        mixed_volume_of([P((0, 0))], frame)


def _frame_body(rng, frame, npts):
    """Hull of npts random points of [0, 2]^l in frame coordinates, shifted.

    Returns the body and the hull of those frame coordinates in Z^l.  The
    box holds 3^l points, so npts is capped there.
    """
    n = frame.ambient_dim
    npts = min(npts, 3 ** len(frame.basis))
    shift = tuple(rng.randint(-3, 3) for _ in range(n))
    xs = set()
    while len(xs) < npts:
        xs.add(tuple(rng.randint(0, 2) for _ in frame.basis))
    pts = [tuple(s + sum(xj * b.coords[i] for xj, b in zip(x, frame.basis))
                 for i, s in enumerate(shift))
           for x in xs]
    return hull([IntPoint(p) for p in pts]), hull([IntPoint(x) for x in xs])


def _placed(rng, pts):
    """Hull of pts under a random unimodular map and translation."""
    d = len(pts[0])
    U = _random_unimodular(rng, d) if d > 1 else [[1]]
    shift = tuple(rng.randint(-4, 4) for _ in range(d))
    return hull([IntPoint(tuple(s + sum(U[r][c] * p[c] for c in range(d))
                                for r, s in enumerate(shift)))
                 for p in pts])


def test_pyramid_volumes_match_counting_and_closed_forms():
    rng = random.Random(77)
    # non-simplicial full-dimensional bodies in Z^d, d <= 4; 17 draws give
    # the 16, and the bound makes a wrong hull, which may accept none, fail
    checked = 0
    for _draw in range(200):
        d = 2 + checked % 3
        frame = LatticeFrame.standard(d)
        Q, _ = _frame_body(rng, frame, rng.randint(d + 2, d + 4))
        if len(Q.vertices) <= d + 1 or dim(Q) < d:
            continue
        assert lattice_volume(Q, frame) == lattice_point_volume_oracle(Q, frame)
        checked += 1
        if checked == 16:
            break
    assert checked == 16
    # rank-l frames inside Z^(l+1) and Z^(l+2), measured against counting
    # and, independently of the projection, against the frame coordinates
    indices = set()
    for l, extra in product((1, 2, 2, 3, 3, 3), (1, 2)):
        n = l + extra
        while True:
            dirs = [IntPoint(tuple(rng.randint(-2, 2) for _ in range(n)))
                    for _ in range(l)]
            frame = LatticeFrame.span_of(dirs, n)
            if frame.rank == l:
                break
        indices.add(frame.index)
        standard = LatticeFrame.standard(l)
        Q, X = _frame_body(rng, frame, rng.randint(l + 1, l + 3))
        assert lattice_volume(Q, frame) == lattice_point_volume_oracle(Q, frame)
        assert lattice_volume(Q, frame) == lattice_volume(X, standard)
        bodies = [(Q, X)] + [_frame_body(rng, frame, rng.randint(2, l + 2))
                             for _ in range(l - 1)]
        assert (mixed_volume_of([B for B, _ in bodies], frame)
                == mixed_volume_of([Y for _, Y in bodies], standard))
    assert max(indices) > 1
    # bodies in a hyperplane have volume 0
    for d in (1, 2, 3, 4):
        frame = LatticeFrame.standard(d)
        flat = [tuple(rng.randint(0, 2) for _ in range(d - 1)) + (0,)
                for _ in range(d + 1)]
        Q = _placed(rng, flat)
        assert lattice_volume(Q, frame) == 0
        assert lattice_point_volume_oracle(Q, frame) == 0
    # d = 5: boxes and dilated simplices, where counting is too slow
    frame = LatticeFrame.standard(5)
    for _ in range(4):
        sides = [rng.randint(1, 3) for _ in range(5)]
        box = [tuple(s * bit for s, bit in zip(sides, bits))
               for bits in product((0, 1), repeat=5)]
        assert lattice_volume(_placed(rng, box), frame) == prod(sides)
        a = rng.randint(1, 3)
        simplex = [(0,) * 5] + [tuple(a * (i == j) for j in range(5)) for i in range(5)]
        assert lattice_volume(_placed(rng, simplex), frame) == Fraction(a ** 5, factorial(5))
    # the facet (-2,-3).x >= -6 misses the origin and its normal has no
    # entry +-1: its projection measures the facet in a sublattice of index 2
    tri = ((0, 0), (0, 2), (3, 0))
    assert ((-2, -3), -6) in _dd(tri)[1]
    Q = P(*tri)
    frame = LatticeFrame.standard(2)
    assert lattice_volume(Q, frame) == lattice_point_volume_oracle(Q, frame) == 3


@st.composite
def _mixed_cases(draw):
    """l <= 4 bodies of points of a small box, the first one P kept apart.

    Bodies are points, segments or 3-4 points, some repeat an earlier one
    shifted, and all are translated.  In "flat" cases the bodies after P
    lie in the hyperplane u.x = 0, u = e_l or e_l - e_1, so that their
    sum has rank l - 1 or less; "low" cases (l >= 3) also keep x_1 = 0,
    a rank of l - 2 or less.
    """
    rng = draw(st.randoms(use_true_random=False))
    l = rng.randint(1, 4)
    modes = ["free", "free", "flat", "low"][: 1 if l == 1 else 3 if l == 2 else 4]
    mode = rng.choice(modes)
    u = rng.choice([(0,) * (l - 1) + (1,), (-1,) + (0,) * (l - 2) + (1,)])
    hi = 2 if l < 4 else 1  # keeps the oracle's 2^l subset sums small
    box = list(product(range(hi + 1), repeat=l))
    flat = [p for p in box if sum(a * b for a, b in zip(u, p)) == 0
            and (mode != "low" or p[0] == 0)]
    bodies = []
    for i in range(l):
        pool = box if i == 0 or mode == "free" else flat
        repeats = bodies if mode == "free" else bodies[1:]
        if repeats and rng.randrange(4) == 0:
            bodies.append(rng.choice(repeats))
            continue
        size = 1 if rng.randrange(10) == 0 else rng.randint(2, 4)
        bodies.append(rng.sample(pool, min(size, len(pool))))
    placed = []
    for pts in bodies:
        shift = [rng.randint(-2, 2) for _ in range(l)]
        placed.append(P(*[tuple(c + s for c, s in zip(p, shift)) for p in pts]))
    return l, placed


def test_mixed_sums_match_subset_oracle():
    # both the sorted key of mixed_volume_of and the drawn order, whose
    # first body is the one measured by its support on the others' facets
    branches = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_mixed_cases())
    def check(case):
        l, bodies = case
        frame = LatticeFrame.standard(l)
        want = mixed_volume_by_subsets(bodies, frame)
        assert mixed_volume_of(bodies, frame) == want
        key = tuple(volumes._canonical_pts(volumes._reduce_to_frame(B, frame))
                    for B in bodies)
        assert volumes._q_sum(key, l) == want
        if any(len(body) == 1 for body in key):
            branches.add("point")  # decided by _q_sum: the memo takes no zero key
            return
        assert volumes._q_sum_of(key, l) == want
        if l == 1:
            branches.add("length")
        else:
            rank = _rank([p for body in key[1:] for p in body])
            branches.add({l: "facets", l - 1: "flat"}.get(rank, "low"))

    check()
    assert branches == {"length", "point", "facets", "flat", "low"}


def test_mixed_volumes_in_five_dimensions_match_closed_forms():
    # one unimodular map for all bodies, a shift for each: boxes give the
    # permanent of their side lengths, dilated simplices the Bezout product
    rng = random.Random(55)
    frame = LatticeFrame.standard(5)
    U = _random_unimodular(rng, 5)

    def placed(pts):
        shift = [rng.randint(-3, 3) for _ in range(5)]
        return hull([IntPoint(tuple(s + sum(U[r][c] * p[c] for c in range(5))
                                    for r, s in enumerate(shift)))
                     for p in pts])

    for _ in range(2):
        sides = [[rng.randint(1, 3) for _ in range(5)] for _ in range(5)]
        boxes = [placed(list(product(*[(0, a) for a in row]))) for row in sides]
        assert mixed_volume_of(boxes, frame) == permanent(sides)
        dilations = [rng.randint(1, 3) for _ in range(5)]
        simplices = [placed([(0,) * 5] + [tuple(a * (i == j) for j in range(5))
                                          for i in range(5)])
                     for a in dilations]
        assert mixed_volume_of(simplices, frame) == bezout(dilations)
