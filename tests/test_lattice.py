"""Lattice primitives: points and covectors, saturation, frames."""

import random
from itertools import combinations, permutations
from math import gcd

import pytest

from newtonzeta import (
    Covector,
    IntPoint,
    LatticeFrame,
    hull,
    lattice_volume,
    orthogonal_line_generators,
    saturated_basis,
)
from newtonzeta.lattice import _column_reduce, _dot, _rank, _span_coords
from tests.oracle import _abs_det, _solve_in_basis


def test_point_and_covector_are_distinct_types():
    p = IntPoint((1, 2))
    a = Covector((3, 4))
    assert a.pair(p) == 11
    with pytest.raises(TypeError):
        a.pair((1, 2))  # plain tuples are rejected
    with pytest.raises(TypeError):
        p + a  # covector is not a point


def test_intpoint_arithmetic():
    p = IntPoint((1, 2))
    q = IntPoint((0, -5))
    assert (p + q).coords == (1, -3)
    assert (p - q).coords == (1, 7)
    assert (-p).coords == (-1, -2)
    with pytest.raises(TypeError):
        IntPoint((1.5, 2))


def test_saturated_basis_line():
    basis = saturated_basis([IntPoint((2, 2, 0))])
    assert len(basis) == 1
    assert basis[0].coords in ((1, 1, 0), (-1, -1, 0))


def test_saturated_basis_plane():
    # the saturation of span{(1,0,0),(1,2,0)} is all of {(a,b,0)}
    basis = saturated_basis([IntPoint((1, 0, 0)), IntPoint((1, 2, 0))])
    assert len(basis) == 2
    for target in [(1, 0, 0), (0, 1, 0), (3, -5, 0)]:
        sol = _solve_in_basis([b.coords for b in basis], target)
        assert sol is not None
        assert all(x.denominator == 1 for x in sol)


def test_saturated_basis_empty():
    assert saturated_basis([]) == []
    assert saturated_basis([IntPoint((0, 0))]) == []


def _membership_is_integral(vectors, basis):
    rows = [b.coords for b in basis]
    for v in vectors:
        sol = _solve_in_basis(rows, v.coords)
        assert sol is not None, "input escaped the saturated span"
        assert all(x.denominator == 1 for x in sol)


def test_saturated_basis_random_membership():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, n + 1)
        vectors = [
            IntPoint(tuple(rng.randint(-6, 6) for _ in range(n)))
            for _ in range(m)
        ]
        basis = saturated_basis(vectors)
        _membership_is_integral([v for v in vectors if not v.is_zero()], basis)


def _index_by_residue_count(gen_coords):
    """Order of Z^r modulo the rows of gen_coords, by brute force.

    Counts the integer points x = sum lam_i g_i with every lam_i in [0, 1),
    over the box that bounds that parallelepiped coordinate by coordinate.
    lam = x . G^-1, with the rows of G^-1 solved once per unit vector.
    """
    from itertools import product as iproduct

    r = len(gen_coords)
    inverse = [
        _solve_in_basis(gen_coords, tuple(int(i == k) for i in range(r)))
        for k in range(r)
    ]
    ranges = [
        range(sum(min(g[c], 0) for g in gen_coords),
              sum(max(g[c], 0) for g in gen_coords) + 1)
        for c in range(r)
    ]
    count = 0
    for x in iproduct(*ranges):
        lam = [sum(x[k] * inverse[k][i] for k in range(r)) for i in range(r)]
        if all(0 <= v < 1 for v in lam):
            count += 1
    return count


def test_saturation_index_matches_determinant():
    # full-rank square generators: saturation is Z^n and the index is |det|
    rng = random.Random(11)
    trials = 0
    while trials < 8:
        n = rng.randint(2, 3)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        vectors = [IntPoint(g) for g in gens]
        basis = saturated_basis(vectors)
        if len(basis) < n:
            continue
        trials += 1
        coords = [
            tuple(int(x) for x in _solve_in_basis([b.coords for b in basis], g))
            for g in gens
        ]
        assert _abs_det(coords) == _index_by_residue_count(gens)


def test_frame_coordinates_round_trip():
    # a frame keeps the coordinates independent on its span, a point of the
    # span is recovered from them, and the projected lattice has index |det|
    for direction, index in (((1, 1, 0), 1), ((2, 1, 0), 2), ((0, 3, -1), 3)):
        frame = LatticeFrame(IntPoint((0, 0, 0)), (IntPoint(direction),), 3)
        assert frame.coords == (next(i for i, c in enumerate(direction) if c),)
        assert frame.index == index and len(frame.normals) == 2
        block = [tuple(direction[j] for j in frame.coords)]
        for x in (-2, 0, 1, 3):
            p = IntPoint(tuple(x * c for c in direction))
            assert not any(_dot(a, p.coords) for a in frame.normals)
            projected = tuple(p.coords[j] for j in frame.coords)
            assert _solve_in_basis(block, projected) == [x]
        # lattice length: the projected length divided by the index
        start = IntPoint((5, 5, 5))
        segment = hull([start, start + IntPoint(tuple(3 * c for c in direction))])
        assert lattice_volume(segment, frame) == 3


def test_frame_coordinates_outside_span():
    frame = LatticeFrame(IntPoint((0, 0, 0)), (IntPoint((1, 1, 0)),), 3)
    assert any(_dot(a, (1, 0, 0)) for a in frame.normals)
    with pytest.raises(ValueError, match="outside frame span"):
        lattice_volume(hull([IntPoint((0, 0, 0)), IntPoint((1, 0, 0))]), frame)


def test_frame_requires_saturated_basis():
    with pytest.raises(ValueError, match="saturated"):
        LatticeFrame(IntPoint((0, 0)), (IntPoint((2, 0)),), 2)


def test_unit_basis_frames_match_the_reductions():
    # a basis of distinct unit vectors is read off without a reduction:
    # in every order, its fields are those the two reductions give
    for n in range(6):
        units = [(0,) * j + (1,) + (0,) * (n - j - 1) for j in range(n)]
        for r in range(n + 1):
            for rows in permutations(units, r):
                pivots, normals = _column_reduce(rows, n)
                coords, index = _span_coords(rows, pivots)
                frame = LatticeFrame(IntPoint((0,) * n), tuple(map(IntPoint, rows)), n)
                assert (frame.normals, frame.coords, frame.index) == \
                    (tuple(normals), coords, index), rows
    for rows in ([(1, 0), (1, 0)], [(0, 1), (0, 1), (1, 0)]):
        with pytest.raises(ValueError, match="dependent"):
            LatticeFrame(IntPoint((0, 0)), tuple(map(IntPoint, rows)), 2)
    for rows in ([(-1, 0)], [(1, 1)], [(0, 1), (1, -1)]):  # no unit basis
        pivots, normals = _column_reduce(rows, 2)
        frame = LatticeFrame(IntPoint((0, 0)), tuple(map(IntPoint, rows)), 2)
        assert (frame.normals, frame.coords, frame.index) == \
            (tuple(normals), *_span_coords(rows, pivots))


def test_orthogonal_line_generators_examples():
    a, b = orthogonal_line_generators(
        [IntPoint((1, 0, 0)), IntPoint((0, 1, 0))], 3
    )
    assert {a.comps, b.comps} == {(0, 0, 1), (0, 0, -1)}

    a, b = orthogonal_line_generators([IntPoint((1, 1))], 2)
    assert {a.comps, b.comps} == {(1, -1), (-1, 1)}

    with pytest.raises(ValueError, match="normal space not a line"):
        orthogonal_line_generators([IntPoint((1, 0, 0))], 3)


def test_orthogonal_line_with_empty_directions():
    a, b = orthogonal_line_generators([], 1)
    assert {a.comps, b.comps} == {(1,), (-1,)}


def test_int_kernel_is_saturated():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = rng.randint(0, n)
        rows = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(m)]
        kern = _column_reduce(rows, n)[1]
        for v in kern:
            assert all(sum(r * c for r, c in zip(row, v)) == 0 for row in rows)
        # saturation: any rational kernel point that is integral must be an
        # integer combination of the basis
        if kern:
            coeffs = [rng.randint(-3, 3) for _ in kern]
            combo = [
                sum(c * v[i] for c, v in zip(coeffs, kern)) for i in range(n)
            ]
            sol = _solve_in_basis(kern, tuple(combo))
            assert sol is not None
            assert all(x.denominator == 1 for x in sol)


def _leibniz_det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(n), 2))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _greedy_independent(rows):
    """Indices of the rows outside the span of the rows kept before them."""
    kept = []
    for i, r in enumerate(rows):
        if _solve_in_basis([rows[k] for k in kept], r) is None:
            kept.append(i)
    return kept


def _check_frame_coords(rng, frame, rows, n):
    # coords are the greedy independent columns and index is |det| there
    assert frame.coords == tuple(_greedy_independent(list(zip(*rows))))
    block = [[r[j] for j in frame.coords] for r in rows]
    assert frame.index == abs(_leibniz_det(block))
    # the normals cut out the span: the rational oracle agrees on membership
    coeffs = tuple(rng.randint(-4, 4) for _ in rows)
    delta = tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(n))
    assert not any(_dot(a, delta) for a in frame.normals)
    if frame.rank == 1:
        point = IntPoint(tuple(o + d for o, d in zip(frame.origin.coords, delta)))
        assert lattice_volume(hull([frame.origin, point]), frame) == abs(coeffs[0])
    other = tuple(rng.randint(-6, 6) for _ in range(n))
    sol = _solve_in_basis(rows, other)
    assert (sol is not None) == all(_dot(a, other) == 0 for a in frame.normals)
    if sol is None:
        moved = IntPoint(tuple(o + d for o, d in zip(frame.origin.coords, other)))
        with pytest.raises(ValueError, match="outside frame span"):
            lattice_volume(hull([frame.origin, moved]), frame)
    else:
        assert all(x.denominator == 1 for x in sol)


def test_column_reduction_matches_rational_oracle():
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(0, n)
        rows = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m)]
        if m >= 2 and rng.random() < 0.3:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[-1] = tuple(a * x + b * y for x, y in zip(rows[0], rows[1]))
        greedy = _greedy_independent(rows)
        pivots, kernel = _column_reduce(rows, n)
        assert [i for i, _col, _g in pivots] == greedy
        assert _rank(rows) == len(greedy)
        assert len(kernel) == n - len(greedy)
        if m == n:
            assert _abs_det(rows) == abs(_leibniz_det(rows))

        origin = IntPoint(tuple(rng.randint(-6, 6) for _ in range(n)))
        basis = tuple(IntPoint(r) for r in rows)
        minors = 0
        for cols in combinations(range(n), m):
            minors = gcd(minors, _leibniz_det([[r[j] for j in cols] for r in rows]))
        if len(greedy) < m:
            with pytest.raises(ValueError, match="dependent"):
                LatticeFrame(origin, basis, n)
        elif minors != 1:
            with pytest.raises(ValueError, match="saturated"):
                LatticeFrame(origin, basis, n)
        else:
            _check_frame_coords(rng, LatticeFrame(origin, basis, n), rows, n)

        sat = tuple(saturated_basis(basis))
        if sat:
            frame = LatticeFrame(origin, sat, n)
            _check_frame_coords(rng, frame, [b.coords for b in sat], n)
