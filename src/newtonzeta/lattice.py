"""Exact lattice linear algebra: points, covectors, frames, saturation.

Everything is arbitrary-precision integer arithmetic; no floating point
enters at any stage.  The one elimination is a unimodular column
reduction of an integer matrix: ranks, kernels and spans read off it,
among them the one kernel vector that gives a flat set's DD the two
sides of its hyperplane, and the start rays of a DD cone after one
triangular substitution.  Frames measure by deleting coordinates: a
second reduction, of the basis transpose, picks the coordinates to keep
and the index of the projected lattice, so no vertex is solved for.  A
hyperplane with a primitive normal a needs no reduction at all: delete
the coordinate of smallest nonzero |a_j| and divide by |a_j|
(``_hyperplane_measure``, shared by the mixed-area recursion and strata).

Points and covectors are deliberately distinct types even though both
wrap integer vectors: the only pairing the code ever performs is
``Covector.pair(IntPoint)``, which rules out a whole class of
direction-confusion bugs at type-check time.
"""

from __future__ import annotations

from math import gcd, prod
from operator import mul
from typing import Callable, Sequence

__all__ = [
    "IntPoint",
    "Covector",
    "LatticeFrame",
    "saturated_basis",
    "orthogonal_line_generators",
]


def _as_int_tuple(coords) -> tuple[int, ...]:
    out = tuple(coords)
    for c in out:
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"integer coordinates required, got {c!r}")
    return out


class _Value:
    """An immutable value: equality, hash, repr and pickling from ``_fields``.

    ``_fields`` names the constructor's arguments in order, and they alone
    take part: equal only to a value of the same class with equal fields,
    hashed as the tuple of them, rebuilt by calling the class on them.  A
    subclass lists every attribute in ``__slots__``, and its ``__init__``
    checks its arguments and then stores each slot once, bypassing the
    ``__setattr__`` that refuses assignment.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _store(self, *values) -> None:
        """Set the slots, in the order ``__slots__`` lists them."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, *_value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._key()


class IntPoint(_Value):
    """A lattice point, or an integer direction vector, in Z^n."""

    __slots__ = _fields = ("coords",)

    def __init__(self, coords: Sequence[int]):
        object.__setattr__(self, "coords", _as_int_tuple(coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _check(self, other: "IntPoint") -> None:
        if not isinstance(other, IntPoint):
            raise TypeError(f"expected IntPoint, got {type(other).__name__}")
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "IntPoint") -> "IntPoint":
        self._check(other)
        return IntPoint(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "IntPoint") -> "IntPoint":
        self._check(other)
        return IntPoint(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "IntPoint":
        return IntPoint(tuple(-a for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __repr__(self) -> str:
        return f"IntPoint{self.coords}"


class Covector(_Value):
    """An integer linear functional, written in the dual basis."""

    __slots__ = _fields = ("comps",)

    def __init__(self, comps: Sequence[int]):
        object.__setattr__(self, "comps", _as_int_tuple(comps))

    @property
    def dim(self) -> int:
        return len(self.comps)

    def pair(self, point: IntPoint) -> int:
        """Evaluate the functional on a point. The one allowed pairing."""
        if not isinstance(point, IntPoint):
            raise TypeError("covectors pair with IntPoint only")
        if point.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {point.dim}")
        return sum(c * k for c, k in zip(self.comps, point.coords))

    def is_zero(self) -> bool:
        return not any(self.comps)

    def __neg__(self) -> "Covector":
        return Covector(tuple(-c for c in self.comps))

    def __repr__(self) -> str:
        return f"Covector{self.comps}"


# ---------------------------------------------------------------------------
# raw integer matrix helpers (tuples in, tuples out)
# ---------------------------------------------------------------------------

def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _column_reduce(
    rows: Sequence[tuple[int, ...]], n: int
) -> tuple[list[tuple[int, tuple[int, ...], int]], list[tuple[int, ...]]]:
    """Unimodular column reduction of a row stack (the Hermite step).

    Columns start as the unit vectors of Z^n and are combined by
    extended-gcd steps, one row at a time, so that each row meets at most
    one still-active column.  A row that meets one gets a pivot: it is
    independent of the rows before it, and it is returned as
    ``(row index, pivot column, gcd)`` with ``row . column == gcd > 0``;
    the pivot column leaves the active set.  Pivot rows come in input
    order, so they are the greedy maximal independent subset, and a pivot
    row is orthogonal to the pivot columns of every later pivot row.
    The active columns left at the end are a basis of
    {x in Z^n : r.x = 0 for every row r}, saturated because all the
    column steps are unimodular.
    """
    cols = [(0,) * j + (1,) + (0,) * (n - j - 1) for j in range(n)]
    pivots: list[tuple[int, tuple[int, ...], int]] = []
    for index, row in enumerate(rows):
        if not cols:
            break
        vals = [sum(map(mul, row, col)) for col in cols]
        pivot = None
        for j, v in enumerate(vals):
            if v == 0:
                continue
            if pivot is None:
                pivot = j
                continue
            a, b = vals[pivot], v
            g, x, y = _xgcd(a, b)
            u, v = -b // g, a // g
            cp, cj = cols[pivot], cols[j]
            cols[pivot] = tuple([x * p + y * q for p, q in zip(cp, cj)])
            cols[j] = tuple([u * p + v * q for p, q in zip(cp, cj)])
            vals[pivot], vals[j] = g, 0
        if pivot is not None:
            col = cols.pop(pivot)
            if vals[pivot] < 0:
                col = tuple(-c for c in col)
            pivots.append((index, col, abs(vals[pivot])))
    return pivots, cols


def _rank(rows: Sequence[tuple[int, ...]]) -> int:
    """Rank over Q of a stack of integer rows."""
    return len(_column_reduce(rows, len(rows[0]) if rows else 0)[0])


def _triangular_inverse(
    rows: Sequence[tuple[int, ...]],
    pivots: Sequence[tuple[int, tuple[int, ...], int]],
) -> list[tuple[int, ...]]:
    """Primitive columns c_j with rows[k] . c_j > 0 if k == j, else 0.

    ``pivots`` reduce the independent ``rows``, one each, so the rows times
    the pivot columns C are lower triangular with the gcds g_k on the
    diagonal.  c_j is the primitive part of C y, where y_j = 1 and forward
    substitution sets y_k = -s / g_k from the partial sum s of row k,
    after scaling y by g_k / gcd(s, g_k) when g_k does not divide s.
    """
    cols = [col for _, col, _ in pivots]
    low = [[_dot(row, col) for col in cols[:k]] for k, row in enumerate(rows)]
    out = []
    for j in range(len(pivots)):
        y = [1]
        for k in range(j + 1, len(rows)):
            s, g = _dot(low[k][j:], y), pivots[k][2]
            f = g // gcd(s, g)  # 1 when g divides s
            y = [f * v for v in y] + [-s * f // g]
        c = [_dot(y, coords) for coords in zip(*cols[j:])]
        h = gcd(*c)
        out.append(tuple(x // h for x in c))
    return out


def _span_coords(
    rows: Sequence[tuple[int, ...]],
    pivots: Sequence[tuple[int, tuple[int, ...], int]],
) -> tuple[tuple[int, ...], int]:
    """Greedy coordinates J independent on the pivot rows, and |det| on J.

    Both read off one reduction of the rows' transpose: its pivot rows
    are J, and its pivot gcds multiply to the |det|.
    """
    basis = [rows[i] for i, _col, _g in pivots]
    keep = _column_reduce(list(zip(*basis)), len(basis))[0]
    return tuple(j for j, _col, _g in keep), prod(g for _j, _col, g in keep)


def _hyperplane_measure(
    a: Sequence[int],
    point_sets: Sequence[Sequence[tuple[int, ...]]],
    measure: Callable[[list[list[tuple[int, ...]]]], int],
) -> int:
    """A volume-like ``measure`` of point sets on a.x = c, in that lattice.

    ``a`` is primitive.  Deleting the coordinate j of smallest nonzero
    |a_j| (the first on a tie) is injective on the hyperplane and maps its
    lattice onto {y : sum_{i!=j} a_i y_i = 0 mod a_j}, of index |a_j|
    since gcd(a) = 1; so ``measure`` of the projected sets, normalised to
    the full lattice, is divided by |a_j|, exactly.
    """
    j = min((i for i, c in enumerate(a) if c), key=lambda i: abs(a[i]))
    projected = [[p[:j] + p[j + 1:] for p in pts] for pts in point_sets]
    result, rem = divmod(measure(projected), abs(a[j]))
    assert rem == 0, "hyperplane projection failed to be integral"
    return result


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def saturated_basis(vectors: Sequence[IntPoint]) -> list[IntPoint]:
    """Basis of the saturation (rational span intersected with Z^n).

    The output lattice contains the input span, has the same rank, and is
    a direct summand of Z^n, so integer points of the span always have
    integer coordinates in it.  Empty input gives an empty basis.
    """
    vecs = list(vectors)
    if not vecs:
        return []
    n = vecs[0].dim
    rows = [v.coords for v in vecs]
    if any(len(r) != n for r in rows):
        raise ValueError("mixed dimensions in saturated_basis input")
    orth = _column_reduce(rows, n)[1]  # the kernel of the kernel is the saturation
    return [IntPoint(b) for b in _column_reduce(orth, n)[1]]


class LatticeFrame(_Value):
    """Integer coordinates on a rational affine subspace.

    ``origin + Z<basis>`` is exactly the set of lattice points of the
    affine hull, because the basis must be independent and saturated.
    One column reduction of the basis rows checks both (every row gets a
    pivot, of gcd 1, the pivot columns being unimodular), and its kernel
    is ``normals``, which cut out the span.  Volumes are measured by
    deleting coordinates: the projection onto ``coords``, the greedy
    coordinates independent on the span, is injective on it and maps the
    frame lattice onto a sublattice of index ``index`` = |det| of the
    basis restricted to ``coords``.  A basis of distinct unit vectors,
    such as ``standard(n)``'s, is read off directly: it is independent
    and saturated, its ``coords`` are its positions and its ``normals``
    the other unit vectors, as the reductions would give.
    """

    __slots__ = ("origin", "basis", "ambient_dim", "normals", "coords", "index")
    _fields = ("origin", "basis", "ambient_dim")

    def __init__(self, origin: IntPoint, basis: Sequence[IntPoint], ambient_dim: int):
        basis = tuple(basis)
        if origin.dim != ambient_dim:
            raise ValueError("frame origin has wrong dimension")
        rows = [b.coords for b in basis]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("frame basis vector has wrong dimension")
        n = ambient_dim
        ones = {r.index(1) for r in rows if r.count(0) == n - 1 and 1 in r}
        if len(ones) == len(rows):
            # distinct unit vectors: the reduction would pivot on each with
            # gcd 1 and keep the other unit columns, in order
            coords, index = tuple(sorted(ones)), 1
            normals = [(0,) * j + (1,) + (0,) * (n - j - 1)
                       for j in range(n) if j not in ones]
        else:
            pivots, normals = _column_reduce(rows, n)
            if len(pivots) < len(rows):
                raise ValueError("frame basis is linearly dependent")
            if any(g != 1 for _i, _col, g in pivots):
                raise ValueError("frame basis does not generate a saturated lattice")
            coords, index = _span_coords(rows, pivots)
        self._store(origin, basis, ambient_dim, tuple(normals), coords, index)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @classmethod
    def standard(cls, n: int) -> "LatticeFrame":
        basis = tuple(IntPoint((0,) * j + (1,) + (0,) * (n - j - 1)) for j in range(n))
        return cls(IntPoint((0,) * n), basis, n)

    @classmethod
    def span_of(
        cls, directions: Sequence[IntPoint], ambient_dim: int,
        origin: IntPoint | None = None,
    ) -> "LatticeFrame":
        """Frame of the saturated span of the given directions."""
        basis = saturated_basis(directions)
        if origin is None:
            origin = IntPoint((0,) * ambient_dim)
        return cls(origin, tuple(basis), ambient_dim)


def orthogonal_line_generators(
    directions: Sequence[IntPoint], ambient_dim: int
) -> tuple[Covector, Covector]:
    """The two primitive covectors annihilating a corank-1 span.

    The input directions must span a subspace of rank exactly
    ``ambient_dim - 1``; the annihilator is then a line in the dual
    lattice, and its two primitive generators are returned.
    """
    rows = [d.coords for d in directions]
    for r in rows:
        if len(r) != ambient_dim:
            raise ValueError("direction dimension does not match ambient_dim")
    pivots, kern = _column_reduce(rows, ambient_dim)
    if len(pivots) != ambient_dim - 1:
        raise ValueError("normal space not a line")
    beta = Covector(kern[0])
    return beta, -beta
