"""Lattice volumes and mixed volumes, with the counting cross-check.

The normalization is the lattice one: the fundamental cell of the
lattice in an l-dimensional rational subspace has volume 1, so the unit
l-simplex measures 1/l! and l! times a mixed volume is always a
nonnegative integer (it is a count of solutions, by Bernstein's
theorem).  An independent oracle recovers every volume by counting
lattice points of dilates and interpolating.
"""

from newtonzeta import (
    IntPoint,
    LatticeFrame,
    hull,
    lattice_point_volume_oracle,
    lattice_volume,
    minkowski_sum,
    mixed_volume_of,
)


def P(*coords):
    return hull([IntPoint(tuple(c)) for c in coords])


frame2 = LatticeFrame.standard(2)

print("volumes in the plane lattice:")
square = P((0, 0), (2, 0), (0, 2), (2, 2))
triangle = P((0, 0), (1, 0), (0, 1))
print("    2x2 square:   ", lattice_volume(square, frame2))
print("    unit triangle:", lattice_volume(triangle, frame2))

print("\nthe counting oracle sees the same numbers:")
for name, body in (("square", square), ("triangle", triangle)):
    direct = lattice_volume(body, frame2)
    counted = lattice_point_volume_oracle(body, frame2)
    print(f"    {name}: facet pyramids {direct}, interpolated from counts {counted}")

print("\na segment measured inside its own affine line:")
seg = P((0, 0), (3, 3))
line = LatticeFrame.span_of([IntPoint((1, 1))], 2)
print("    lattice length of (0,0)-(3,3):", lattice_volume(seg, line))

print("\nmixed volumes (times l!):")
ex = P((0, 0), (1, 0))
ey = P((0, 0), (0, 1))
print("    transverse unit segments:", mixed_volume_of([ex, ey], frame2))
print("    parallel segments:       ", mixed_volume_of([ex, ex], frame2))
print("    triangle with itself:    ", mixed_volume_of([triangle, triangle], frame2))

print("\nBernstein count for z1 + z2 = 0, z1*z2 + 1 = 0:")
line_poly = P((1, 0), (0, 1))
hyperbola = P((0, 0), (1, 1))
count = mixed_volume_of([line_poly, hyperbola], frame2)
print("    mixed volume =", count, " (the system has", count, "torus solutions)")

print("\nmultilinearity in the first slot:")
A, B, S = P((0, 0), (1, 0)), P((0, 0), (1, 1)), P((0, 0), (0, 1), (1, 0))
lhs = mixed_volume_of([minkowski_sum(A, B), S], frame2)
rhs = mixed_volume_of([A, S], frame2) + mixed_volume_of([B, S], frame2)
print(f"    MV(A+B, S) = {lhs} = {rhs} = MV(A,S) + MV(B,S)")
