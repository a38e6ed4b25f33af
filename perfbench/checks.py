"""Correctness checks on the outputs of the timed passes.

The closed forms (permanents, Bezout products, factor-map arithmetic)
are computed here without the package.  The Euler characteristic of a
generic fiber is summed over coordinate strata with the package's
``fiber_polytopes`` and ``euler_ci_torus``: an independent route to the
number the zeta-function's degree must equal.
"""

from __future__ import annotations

import itertools
from math import prod


def permanent(matrix) -> int:
    """Permanent of a square integer matrix (sum over all permutations)."""
    n = len(matrix)
    return sum(
        prod(matrix[i][p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


def bezout(dilations) -> int:
    """Normalized mixed volume of simplices dilated by a_1..a_d: prod a_i."""
    return prod(dilations)


def factor_map(factors) -> dict[int, int]:
    """{m: exponent} of a list of (m, exponent) pairs, zero exponents dropped."""
    out: dict[int, int] = {}
    for m, e in factors:
        out[m] = out.get(m, 0) + e
    return {m: e for m, e in out.items() if e}


def degree(factors) -> int:
    return sum(m * e for m, e in factor_map(factors).items())


def check_cli_zeta(result: dict) -> str | None:
    """Headline factors of a traced CLI zeta document equal its traces' product."""
    headline = factor_map((f["m"], f["exponent"]) for f in result["factors"])
    traced = factor_map((t["m"], t["exponent"]) for t in result["traces"])
    if headline != traced:
        return f"traces multiply to {traced}, headline is {headline}"
    if result["degree"] != degree(headline.items()):
        return f"degree field {result['degree']} != degree of factors"
    return None


def fiber_euler(n: int, supports) -> int:
    """Euler characteristic of the generic fiber of a deformation system.

    Sums the torus Euler characteristics of the generic fiber over the
    nonempty coordinate strata J of C^(n-1).  Every support meets the
    parameter axis, so each projected constraint keeps the origin and
    survives on every stratum; more equations than |J| leaves J empty.
    """
    from newtonzeta import IntPoint, SystemSpec, euler_ci_torus, fiber_polytopes, hull

    spec = SystemSpec.from_supports(n, supports)
    fibers = fiber_polytopes(spec)
    m = n - 1
    total = 0
    for size in range(1, m + 1):
        if len(fibers) > size:
            continue
        for J in itertools.combinations(range(m), size):
            survivors = []
            for P in fibers:
                kept = [v.coords for v in P.vertices
                        if all(c == 0 for i, c in enumerate(v.coords) if i not in J)]
                survivors.append(hull([IntPoint(tuple(v[i] for i in J)) for v in kept]))
            total += euler_ci_torus(survivors, size)
    return total
