"""The signed mixed-volume exponents, and the composition enumeration
of the reference route they are checked against."""

import random
from itertools import product
from operator import add

import pytest
from hypothesis import assume, given, settings, strategies as st

from newtonzeta import (
    IntPoint,
    LatticeFrame,
    hull,
    mixed_volume_of,
    q_exponent,
    q_tilde_exponent,
    volumes,
)
from tests.conftest import random_polytope
from tests.oracle import (
    Composition,
    mixed_volume_by_subsets,
    permanent,
    q_compositions,
    q_exponent_by_compositions,
)


def P(*coords):
    return hull([IntPoint(tuple(c)) for c in coords])


def test_composition_validation():
    assert Composition((2, 1)).degree == 3
    with pytest.raises(ValueError):
        Composition((0, 1))


def test_q_compositions_small_cases():
    assert q_compositions(1, 1) == [(Composition((1,)), 1)]
    assert q_compositions(2, 1) == [(Composition((2,)), -1)]
    assert q_compositions(2, 2) == [(Composition((1, 1)), 1)]
    assert q_compositions(1, 2) == []
    assert q_compositions(3, 0) == []
    assert q_compositions(0, 0) == [(Composition(()), 1)]


def test_q_compositions_are_complete_and_signed():
    for l in range(0, 7):
        for k in range(0, 7):
            entries = q_compositions(l, k)
            seen = set()
            for comp, sign in entries:
                assert len(comp.parts) == k
                assert comp.degree == l
                assert sign == (-1) ** (l - k)
                seen.add(comp.parts)
            assert len(seen) == len(entries)
            from math import comb
            expected = comb(l - 1, k - 1) if k >= 1 and l >= k else (1 if l == k == 0 else 0)
            assert len(entries) == expected


def test_q_compositions_rejects_negative():
    with pytest.raises(ValueError):
        q_compositions(-1, 0)


def test_q_exponent_degree_zero_cases():
    frame0 = LatticeFrame(IntPoint((0, 0)), (), 2)
    assert q_exponent(0, [], frame0) == 1
    assert q_exponent(0, [P((1, 0))], frame0) == 0


def test_q_exponent_segment_is_lattice_length():
    frame = LatticeFrame.span_of([IntPoint((1, 1))], 2)
    assert q_exponent(1, [P((0, 0), (1, 1))], frame) == 1
    assert q_exponent(1, [P((0, 0), (2, 2))], frame) == 2


def test_q_exponent_unit_triangle_degree_two():
    frame = LatticeFrame.standard(2)
    tri = P((0, 0), (1, 0), (0, 1))
    assert q_exponent(2, [tri], frame) == -1  # one body, sign (-1)^(2-1)


def test_q_exponent_vanishes_when_more_bodies_than_degree():
    frame = LatticeFrame.span_of([IntPoint((1, 0))], 2)
    s = P((0, 0), (1, 0))
    assert q_exponent(1, [s, s], frame) == 0


def test_q_exponent_vanishes_on_empty_body():
    frame = LatticeFrame.standard(2)
    e = hull([], ambient_dim=2)
    assert q_exponent(2, [e, P((0, 0), (1, 0))], frame) == 0


def test_q_exponent_symmetric_in_bodies():
    rng = random.Random(14)
    frame = LatticeFrame.standard(2)
    for _ in range(10):
        A = random_polytope(rng, 2, hi=3)
        B = random_polytope(rng, 2, hi=3)
        assert q_exponent(2, [A, B], frame) == q_exponent(2, [B, A], frame)


def test_q_exponent_frame_rank_mismatch():
    frame = LatticeFrame.standard(2)
    with pytest.raises(ValueError, match="frame rank"):
        q_exponent(1, [P((0, 0), (1, 0))], frame)
    with pytest.raises(ValueError, match="frame rank"):
        q_exponent(0, [P((0, 0, 0), (1, 0, 0))], LatticeFrame.standard(3))


def test_q_tilde_degree_zero():
    frame0 = LatticeFrame(IntPoint((0,)), (), 1)
    assert q_tilde_exponent(0, P((0,)), [], frame0) == 1


def test_q_tilde_hypersurface_specialization():
    # with no ordinary bodies: (-1)^l l! Vol_l of the distinguished body
    frame = LatticeFrame.span_of([IntPoint((1, 0))], 2)
    for m in (1, 2, 5):
        s = P((0, 0), (m, 0))
        assert q_tilde_exponent(1, s, [], frame) == -m


def test_q_tilde_point_with_segment():
    frame = LatticeFrame.span_of([IntPoint((1, 0))], 2)
    point = P((0, 0))
    for v in (1, 3):
        s = P((0, 0), (v, 0))
        assert q_tilde_exponent(1, point, [s], frame) == v


def test_q_tilde_rejects_empty_distinguished_body():
    frame = LatticeFrame.standard(2)
    with pytest.raises(ValueError, match="nonempty"):
        q_tilde_exponent(2, hull([], ambient_dim=2), [], frame)


def _lift(Q, extra=0):
    return hull([IntPoint(v.coords + (extra,)) for v in Q.vertices])


def test_cone_over_distinguished_body_matches_tilde_exponent():
    # bodies in the hyperplane {last = 0}, apex one lattice step above it
    rng = random.Random(2718)
    for _ in range(25):
        n = rng.randint(1, 3)
        k = rng.randint(0, 2)
        D0 = random_polytope(rng, n, hi=3)
        Ds = [random_polytope(rng, n, hi=3) for _ in range(k)]
        apex = IntPoint((0,) * n + (1,))
        coneD0 = hull([IntPoint(v.coords + (0,)) for v in D0.vertices] + [apex])
        big = LatticeFrame.standard(n + 1)
        lhs = q_exponent(n + 1, [coneD0] + [_lift(D) for D in Ds], big)
        base = LatticeFrame(
            IntPoint((0,) * (n + 1)),
            tuple(
                IntPoint(tuple(1 if j == i else 0 for j in range(n + 1)))
                for i in range(n)
            ),
            n + 1,
        )
        rhs = q_tilde_exponent(n, _lift(D0), [_lift(D) for D in Ds], base)
        assert lhs == rhs


def _random_frame(rng, l, embedded):
    """The standard l-frame, or a random rank-l frame inside Z^(l+1)."""
    if not embedded:
        return LatticeFrame.standard(l)
    while True:
        dirs = [IntPoint(tuple(rng.randint(-2, 2) for _ in range(l + 1)))
                for _ in range(l)]
        frame = LatticeFrame.span_of(dirs, l + 1)
        if frame.rank == l:
            return frame


def _random_face(rng, kind, frame, earlier):
    """A face in a translate of the frame's span, built by ``kind``."""
    l, n = frame.rank, frame.ambient_dim
    if kind == "repeat":
        return rng.choice(earlier)
    shift = tuple(rng.randint(-3, 3) for _ in range(n))
    if kind == "translate":
        base = rng.choice(earlier)
        return hull([IntPoint(tuple(c + s for c, s in zip(v.coords, shift)))
                     for v in base.vertices])
    # [0, 2]^1 holds only three points; at l = 4 more make the oracle slow
    npts = {"point": 1, "segment": 2}.get(kind) or rng.randint(
        3, 3 if l in (1, 4) else 4)
    coords = set()
    while len(coords) < npts:
        coords.add(tuple(rng.randint(0, 2) for _ in range(l)))
    pts = []
    for x in coords:
        p = list(shift)
        for xj, b in zip(x, frame.basis):
            p = [pi + xj * bi for pi, bi in zip(p, b.coords)]
        pts.append(IntPoint(tuple(p)))
    return hull(pts)


def test_dilation_sums_match_composition_oracle():
    # every l <= 4 and 1 <= k <= l + 1, in standard and embedded frames,
    # with repeated, translated, point and segment faces; exact equality
    rng = random.Random(4242)
    kinds_seen = set()
    cases = [(l, k, embedded) for l in range(1, 5) for k in range(1, l + 2)
             for embedded in (False, True)]
    for l, k, embedded in cases * 5:
        frame = _random_frame(rng, l, embedded)
        faces = []
        for _ in range(k):
            # a point face makes the exponent 0, so most faces are bodies
            kinds = ["body"] * 4 + ["point", "segment"]
            if faces:
                kinds += ["repeat", "translate"]
            kind = rng.choice(kinds)
            kinds_seen.add(kind)
            faces.append(_random_face(rng, kind, frame, faces))
        expected = q_exponent_by_compositions(l, faces, frame)
        assert q_exponent(l, faces, frame) == expected
        assert q_tilde_exponent(l, faces[0], faces[1:], frame) == (
            q_exponent_by_compositions(l, faces[1:], frame) - expected
        )
        bodies = [faces[i % k] for i in range(l)]
        assert mixed_volume_of(bodies, frame) == (
            mixed_volume_by_subsets(bodies, frame)
        )
    assert kinds_seen == {"body", "point", "segment", "repeat", "translate"}


@st.composite
def _exponent_cases(draw):
    """l <= 4 and 1 <= k <= l bodies, each a point or 2-4 points; some
    cases keep every body in the hyperplane x_l = 0, so that their sum
    has rank below l.  Drawn from a Hypothesis ``Random``, which spreads
    its choices wider than ``st.integers`` and ``st.sets`` do."""
    rng = draw(st.randoms(use_true_random=False))
    l = rng.randint(1, 4)
    k = rng.randint(1, l)
    flat = l > 1 and rng.randrange(5) == 0
    hi = 2 if l < 4 else 1  # keeps the oracle's 2^l subset sums small
    box = [p for p in product(range(hi + 1), repeat=l) if not (flat and p[-1])]
    bodies = []
    for _ in range(k):
        size = 1 if rng.randrange(10) == 0 else min(len(box), rng.randint(2, 4))
        bodies.append(rng.sample(box, size))
    return l, [P(*body) for body in bodies]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_exponent_cases())
def test_cayley_sums_match_composition_oracle(case):
    # the one recursion measures every k <= l, on the sorted key that
    # q_exponent builds and on the drawn order, whose first body is the
    # one measured by its support on the facets of the sum
    l, faces = case
    frame = LatticeFrame.standard(l)
    want = q_exponent_by_compositions(l, faces, frame)
    assert q_exponent(l, faces, frame) == want
    key = tuple(volumes._canonical_pts(volumes._reduce_to_frame(f, frame))
                for f in faces)
    assert volumes._q_sum(key, l) == want
    if all(len(body) > 1 for body in key):  # the memo takes no zero key
        assert volumes._q_sum_of(key, l) == want


@st.composite
def _simplicial_cases(draw):
    """1 <= k < l <= 4 bodies with l + k vertices in all, each body two
    or more of them: their Cayley set is one simplex.  The l edge rows
    e_j + c_j, c_j in [-2, 2]^l, are dealt to the bodies, each of which
    is the origin and its rows, shifted; a body whose points are not all
    vertices is rejected.  A quarter of the cases with l > 2 make the
    last row the sum of the first two, so that the determinant is 0 (a
    body may then be a parallelogram); most others have |det| > 1."""
    rng = draw(st.randoms(use_true_random=False))
    l = rng.randint(2, 4)
    k = rng.randint(1, l - 1)
    owner = list(range(k)) + [rng.randrange(k) for _ in range(l - k)]
    rows = [tuple(int(i == j) + rng.randint(-2, 2) for i in range(l))
            for j in range(l)]
    if l > 2 and rng.randrange(4) == 0:
        rows[-1] = tuple(map(add, rows[0], rows[1]))
    faces = []
    for body in range(k):
        shift = tuple(rng.randint(-2, 2) for _ in range(l))
        pts = [shift] + [tuple(map(add, shift, row))
                         for row, i in zip(rows, owner) if i == body]
        faces.append(P(*pts))
        assume(len(faces[-1].vertices) == len(pts))
    return l, faces


def test_simplicial_cayley_sets_take_no_lift(monkeypatch):
    # a set of l + k points of rank l is one simplex, so its value is one
    # determinant and no hull is taken; values of 0, 1 and more occur
    reached = set()

    def no_hull(pts, d):
        raise AssertionError("a simplicial Cayley set was hulled")

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_simplicial_cases())
    def check(case):
        l, faces = case
        frame = LatticeFrame.standard(l)
        want = q_exponent_by_compositions(l, faces, frame)
        drop = q_exponent_by_compositions(l, faces[1:], frame)
        volumes._q_sum_of.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(volumes, "_dd", no_hull)
            assert q_exponent(l, faces, frame) == want
            assert q_tilde_exponent(l, faces[0], faces[1:], frame) == drop - want
        reached.add(min(abs(want), 2))

    check()
    assert reached == {0, 1, 2}


@st.composite
def _small_point_sets(draw):
    """1 <= k <= l + 2 sets of 1-3 distinct points in [0,2]^l, l <= 3."""
    l = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(0, 2)] * l)
    return l, draw(st.lists(st.lists(point, min_size=1, max_size=3, unique=True),
                            min_size=1, max_size=l + 2))


def test_vanishing_rule_matches_the_composition_oracle():
    # wherever ``_vanishes`` skips a q-form, by more sets than l or by a
    # point set, the composition expansion gives 0 as well
    reached = set()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_small_point_sets())
    def check(case):
        l, sets = case
        if not volumes._vanishes(sets, l):
            return
        faces = [P(*pts) for pts in sets]
        assert q_exponent_by_compositions(l, faces, LatticeFrame.standard(l)) == 0
        reached.add("count" if len(sets) > l else "point")

    check()
    assert reached == {"count", "point"}



def _box_exponent(sides):
    """(-1)^(l-k) sum_a perm(the side rows, row i repeated a_i times)."""
    return sum(sign * permanent([row for row, a in zip(sides, comp.parts)
                                 for _ in range(a)])
               for comp, sign in q_compositions(len(sides[0]), len(sides)))


def _box(row, shift):
    """The box prod_j [0, row_j], translated by shift."""
    return P(*[tuple(map(add, corner, shift))
               for corner in product(*[(0, a) for a in row])])


@st.composite
def _box_cases(draw):
    """1 <= k < l <= 5 boxes with sides in 1..3, each shifted."""
    rng = draw(st.randoms(use_true_random=False))
    l = rng.randint(2, 5)
    k = rng.randint(1, l - 1)
    sides = [[rng.randint(1, 3) for _ in range(l)] for _ in range(k)]
    shifts = [[rng.randint(-2, 2) for _ in range(l)] for _ in range(k)]
    return sides, shifts


def test_box_exponents_match_permanents():
    # boxes are where a triangulation of every cell paid most (ROADMAP
    # item 4): l! MV of boxes is the permanent of their side rows
    for sides, want in [([(1, 2, 3, 1), (2, 1, 1, 3), (1, 1, 2, 2)], -536),
                        ([(1, 2, 1, 3, 1), (2, 1, 2, 1, 1)], -3228)]:
        l = len(sides[0])
        assert _box_exponent(sides) == want
        faces = [_box(row, (0,) * l) for row in sides]
        assert q_exponent(l, faces, LatticeFrame.standard(l)) == want
    reached = set()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_box_cases())
    def check(case):
        sides, shifts = case
        l = len(sides[0])
        faces = [_box(row, shift) for row, shift in zip(sides, shifts)]
        assert q_exponent(l, faces, LatticeFrame.standard(l)) == _box_exponent(sides)
        reached.add((len(sides), l))

    check()
    assert {l for _k, l in reached} == {2, 3, 4, 5}
    assert {(1, 5), (4, 5)} <= reached
