"""Zeta-function of a polynomial deformation, step by step.

The running example is the plane curve family

    z1 + s*(1 + z1^2) = 0

viewed as a deformation in s (the second variable plays the role of the
parameter).  For small s the fiber consists of two points, one close to
the origin and one close to infinity; the monodromy permutes neither, so
the zeta-function is (1 - t)^2.  The whole computation happens on Newton
polytopes: no root is ever solved for.
"""

from newtonzeta import (
    SystemSpec,
    ZetaProduct,
    newton_polytope,
    parse_polynomial,
    restrict_system,
    zeta_deformation,
)

spec = SystemSpec(
    n=2,
    constraints=(parse_polynomial("z1 + z2*(1+z1^2)", ["z1", "z2"]),),
)

P = newton_polytope(spec.constraints[0])
print("Newton polytope of the constraint:")
for v in P.vertices:
    print("   ", v.coords)

# The affine zeta-function is a product over the strata of C^2 that
# contain the parameter axis: here {z2-axis} and the full plane.  Each
# trace names its stratum, so grouping the traces by index set gives the
# per-stratum factors.
z, traces = zeta_deformation(spec, mode="origin", scope="affine")
per_stratum: dict[frozenset, dict[int, int]] = {}
for t in traces:
    exps = per_stratum.setdefault(t.index_set, {})
    exps[t.m] = exps.get(t.m, 0) + t.exponent
print("\nPer-stratum factors (monodromy at the origin):")
for index_set in (frozenset({1}), frozenset({0, 1})):
    rs = restrict_system(spec, index_set)
    factor = ZetaProduct.from_exponents(per_stratum.get(index_set, {}))
    names = "{" + ", ".join("z1 z2".split()[i] for i in sorted(index_set)) + "}"
    print(f"    stratum {names}: kept {rs.k_of_I} constraint(s), factor {factor.pretty()}")

for scope in ("torus", "affine"):
    z, traces = zeta_deformation(spec, mode="origin", scope=scope)
    print(f"\nzeta at the origin, {scope} scope: {z.pretty()}  (degree {z.degree()})")

print("\nContributing covectors:")
for t in traces:
    print(f"    stratum {sorted(t.index_set)}, alpha = {t.alpha.comps}, "
          f"factor (1-t^{t.m})^{t.exponent}")

zinf, _ = zeta_deformation(spec, mode="infinity", scope="affine")
print(f"\nzeta at infinity of the parameter: {zinf.pretty()}")
print("\nBoth fiber points are fixed by the monodromy, hence (1-t)^2.")
