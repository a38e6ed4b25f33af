"""Euler characteristics of torus complete intersections, and how they
certify zeta degrees.

The degree of a monodromy zeta-function (sum of m * exponent over its
factors) equals the Euler characteristic of the fiber.  The package can
compute both sides independently: the zeta from the deformation engine,
the characteristic from the polytopes of a generic fiber, stratified
over coordinate subspaces.  Agreement is a strong end-to-end check.
"""

from itertools import combinations

from newtonzeta import (
    IntPoint,
    SystemSpec,
    euler_ci_torus,
    fiber_polytopes,
    hull,
    parse_polynomial,
    restrict_to_index_set,
    zeta_deformation,
)


def P(*coords):
    return hull([IntPoint(tuple(c)) for c in coords])


print("Euler characteristics in the torus:")
triangle = P((0, 0), (1, 0), (0, 1))
print("    generic line in (C*)^2:     ", euler_ci_torus([triangle], 2),
      "  (a thrice-punctured sphere)")
print("    two transverse binomials:   ",
      euler_ci_torus([P((0, 0), (1, 0)), P((0, 0), (0, 1))], 2))
print("    the empty intersection k=0: ", euler_ci_torus([], 2),
      "  (chi of the 2-torus)")


def stratified_fiber_chi(spec):
    fibers = fiber_polytopes(spec)
    m = spec.n - 1
    total = 0
    for size in range(1, m + 1):
        for J in combinations(range(m), size):
            survivors = []
            for Q in fibers:
                R = restrict_to_index_set(Q, J)
                if R.is_empty:
                    continue
                survivors.append(hull([
                    IntPoint(tuple(v.coords[i] for i in sorted(J)))
                    for v in R.vertices
                ]))
            if len(survivors) > size:
                continue
            total += euler_ci_torus(survivors, size)
    return total


print("\ndegree(zeta) against the stratified fiber characteristic:")
examples = [
    ("z1 + z2*(1+z1^2)", 2),
    ("z1*z2 - 1", 2),
    ("z2 + z1 + z1^2", 2),
]
for text, n in examples:
    variables = [f"z{i+1}" for i in range(n)]
    spec = SystemSpec(n=n, constraints=(parse_polynomial(text, variables),))
    z, _ = zeta_deformation(spec, mode="origin", scope="affine")
    chi = stratified_fiber_chi(spec)
    print(f"    {text:20}  zeta = {z.pretty():12}  degree {z.degree():2}"
          f"   fiber chi {chi:2}")
