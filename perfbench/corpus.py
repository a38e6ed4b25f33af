"""Seeded inputs for the three workloads.

Every generator takes the workload seed and returns plain data: job
documents (JSON-ready dicts) for the CLI workload, exponent supports for
the engine workload and point sets for the mixed-volume workload.  The
same seed always yields the same inputs; the package sees nothing else.

Corpus sizes are chosen so one round takes about 20 seconds of work at
the reference host speed (up to 30 s on a slow 2-core host) and so that
the total cost varies little from seed to seed: many operations of
similar cost rather than a few large ones.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("deform-affine", "polyzeta-cone", "mixedvol-d4")

# systems per ambient dimension; the smoke corpus is one small input
DEFORM_SIZES = {4: 36, 5: 5}
POLYZETA_SIZES = {4: 20, 5: 20}
POLYZETA_POINTS = 3
MIXEDVOL_TRIPLES = 6
MIXEDVOL_POINTS = 3
MIXEDVOL_BOXES = 20
MIXEDVOL_SIMPLICES = 4

# a coefficient beyond Python's default 4300-digit int() limit
OVERSIZED_LITERAL = "1" + "0" * 4999


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _points(rng: random.Random, n: int, count: int, hi: int = 3,
            start=(), exclude=()) -> list[tuple[int, ...]]:
    pts = set(start)
    while len(pts) < count:
        p = tuple(rng.randint(0, hi) for _ in range(n))
        if p not in exclude:
            pts.add(p)
    return sorted(pts)


def polynomial_text(rng: random.Random, support, variables) -> str:
    """The support written as polynomial text with random integer coefficients."""
    pieces = []
    for exps in support:
        c = rng.choice([k for k in range(-9, 10) if k != 0])
        factors = [
            v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e
        ]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        sign = "-" if c < 0 else "+"
        pieces.append(f"{sign} {body}")
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else text


def deform_affine(seed: int, smoke: bool = False) -> list[dict]:
    """CLI jobs: deform-origin and deform-infinity of random k=2 systems.

    Each support has 4 points in [0,3]^n, one of them z_n^c (c >= 1) on
    the parameter axis, so every constraint survives on every stratum of
    the generic fiber and the Euler-characteristic check applies.
    """
    rng = _rng("deform-affine", seed)
    dims = [3] if smoke else [n for n, c in DEFORM_SIZES.items() for _ in range(c)]
    k = 1 if smoke else 2
    jobs = []
    for n in dims:
        variables = [f"z{i + 1}" for i in range(n)]
        supports = []
        for _ in range(k):
            axis = (0,) * (n - 1) + (rng.randint(1, 3),)
            supports.append(_points(rng, n, 4, start=[axis]))
        doc = {
            "n": n,
            "variables": variables,
            "constraints": [polynomial_text(rng, s, variables) for s in supports],
            "scope": "affine",
            "options": {"trace": True, "assume_nondegenerate": True},
        }
        for task in ("deform-origin", "deform-infinity"):
            jobs.append({"task": task, "doc": doc, "supports": supports})
    return jobs


def oversized_jobs() -> list[dict]:
    """Seed-independent jobs whose one coefficient has 5000 digits.

    One puts the literal in a numerator, one in a denominator; ``plain``
    is the same job with that coefficient set to 1.
    """
    out = []
    for task, coeff in (("deform-origin", OVERSIZED_LITERAL),
                        ("deform-infinity", f"1/{OVERSIZED_LITERAL}")):
        def doc(c: str) -> dict:
            return {
                "n": 3,
                "variables": ["z1", "z2", "z3"],
                "constraints": [f"{c}*z1*z2 + z2^2 - 3*z3 + z1*z3^2"],
                "scope": "affine",
                "options": {"trace": True, "assume_nondegenerate": True},
            }
        out.append({"task": task, "doc": doc(coeff), "plain": doc("1")})
    return out


def polyzeta_cone(seed: int, smoke: bool = False) -> list[dict]:
    """Random k=1 systems with an objective vanishing at the origin.

    Supports have 3 points in [0,3]^n; the objective support avoids the
    origin.  Each system is one direct and one cone-route operation.
    (With 4-point supports one n=5 system alone takes about 6 s, and a
    corpus of a few such systems varies too much from seed to seed.)
    """
    rng = _rng("polyzeta-cone", seed)
    dims = [3] if smoke else [n for n, c in POLYZETA_SIZES.items() for _ in range(c)]
    systems = []
    for n in dims:
        systems.append({
            "n": n,
            "constraints": [_points(rng, n, POLYZETA_POINTS)],
            "objective": _points(rng, n, POLYZETA_POINTS, exclude=[(0,) * n]),
        })
    return systems


def _box(sides) -> list[tuple[int, ...]]:
    return sorted(itertools.product(*[(0, a) for a in sides]))


def _simplex(d: int, a: int) -> list[tuple[int, ...]]:
    return [(0,) * d] + [tuple(a if i == j else 0 for i in range(d)) for j in range(d)]


def minkowski_points(P, Q) -> list[tuple[int, ...]]:
    return sorted({tuple(x + y for x, y in zip(p, q)) for p in P for q in Q})


def mixedvol(seed: int, smoke: bool = False) -> list[dict]:
    """Mixed-volume operations in the standard frame of Z^d (d = 4).

    Random 3-point bodies in [0,3]^d as triples MV(A,C,D,E), MV(B,C,D,E),
    MV(A+B,C,D,E); boxes with side lengths in 1..3; simplices dilated by
    1..3.  Each operation records what its check needs.  (A triple of
    4-point bodies takes about 8 s, and its cost varies by a quarter from
    one triple to the next, so the few that fit in a round swing the
    total from seed to seed.)
    """
    rng = _rng("mixedvol-d4", seed)
    d = 2 if smoke else 4
    triples = 1 if smoke else MIXEDVOL_TRIPLES
    boxes = 1 if smoke else MIXEDVOL_BOXES
    simplices = 1 if smoke else MIXEDVOL_SIMPLICES
    ops = []
    for t in range(triples):
        A, B, *rest = [_points(rng, d, MIXEDVOL_POINTS) for _ in range(d + 1)]
        for role, body in (("A", A), ("B", B), ("A+B", minkowski_points(A, B))):
            ops.append({"kind": "triple", "group": t, "role": role,
                        "bodies": [body, *rest]})
    for _ in range(boxes):
        sides = [[rng.randint(1, 3) for _ in range(d)] for _ in range(d)]
        ops.append({"kind": "box", "sides": sides,
                    "bodies": [_box(row) for row in sides]})
    for _ in range(simplices):
        dil = [rng.randint(1, 3) for _ in range(d)]
        ops.append({"kind": "simplex", "dilations": dil,
                    "bodies": [_simplex(d, a) for a in dil]})
    return ops
