"""Exact monodromy zeta-functions from Newton polytopes.

The package computes, in exact integer/rational arithmetic, the
monodromy zeta-function of a one-parameter polynomial deformation of a
complete intersection (at the origin and at infinity of the parameter)
and of a polynomial restricted to a complete intersection, directly
from the Newton polytopes of the input.  Lattice-normalized mixed
volumes, the cone construction, and Euler-characteristic identities
provide built-in cross-validation; the independent routes that the
tests check against, lattice-point counting among them, are in
``tests/oracle.py``.

Each public name is listed once, in its module's ``__all__``; the
package republishes those lists.
"""

from . import engine, lattice, polytope, qforms, systems, volumes
from .engine import *
from .lattice import *
from .polytope import *
from .qforms import *
from .systems import *
from .volumes import *

__version__ = "0.1.0"

__all__ = [
    *lattice.__all__,
    *polytope.__all__,
    *volumes.__all__,
    *qforms.__all__,
    *systems.__all__,
    *engine.__all__,
]
