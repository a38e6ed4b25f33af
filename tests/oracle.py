"""Rational reference routines, the oracles the exact code is checked against.

Plain Gauss-Jordan elimination over Fraction: slow, but independent of
the unimodular column reduction in newtonzeta.lattice.  The per-point
rank test for vertices is the reference for the mask-based vertex test
in newtonzeta.polytope.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


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
