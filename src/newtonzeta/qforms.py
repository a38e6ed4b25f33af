"""Combinatorial exponent forms on tuples of polytope faces.

The zeta factors raise (1 - t^m) to integer exponents obtained by
evaluating the degree-l part of prod_i x_i/(1+x_i) on polytopes, where a
monomial x_1^{a_1}...x_k^{a_k} stands for the normalized mixed volume of
the bodies taken with those multiplicities.  Their sum over the
compositions a >= 1 of l, (-1)^(l-k) sum_a l! MV(F^a), is measured by
one mixed-area recursion over the facets of the faces' sum: it takes one
copy of the first face out of every composition, and at each facet
normal measures the faces there without that face minus with it, one
degree down.  So no composition is enumerated and no mixed volume is
taken on its own.  For k = l faces the only composition is (1, ..., 1)
and the sum is the one mixed volume l! MV(F_1, ..., F_l).
``volumes._frame_sum`` reduces the faces to the frame, and
``volumes._q_sum`` decides the zero cases, shared with
``volumes.mixed_volume_of``.
"""

from __future__ import annotations

from typing import Sequence

from .lattice import LatticeFrame
from .polytope import LatticePolytope
from .volumes import _frame_sum

__all__ = ["q_exponent", "q_tilde_exponent"]


def q_exponent(
    l: int, faces: Sequence[LatticePolytope], frame: LatticeFrame
) -> int:
    """Signed sum of mixed volumes over the compositions of degree l.

    The degree-0 case is purely combinatorial (1 for zero bodies, else 0)
    and, like the other zero cases, is decided by ``volumes._q_sum``
    before any geometry.
    """
    if frame.rank != l:
        raise ValueError("frame rank must equal the exponent degree")
    return _frame_sum(faces, frame)


def q_tilde_exponent(
    l: int,
    face0: LatticePolytope,
    faces: Sequence[LatticePolytope],
    frame: LatticeFrame,
) -> int:
    """Exponent with a distinguished body: drop it, minus keep it.

    For zero ordinary bodies this collapses to (-1)^l l! Vol_l(face0),
    the hypersurface specialization.
    """
    if face0.is_empty:
        raise ValueError("distinguished body must be nonempty")
    return q_exponent(l, list(faces), frame) - q_exponent(
        l, [face0, *faces], frame
    )
