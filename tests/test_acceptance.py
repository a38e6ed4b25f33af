"""Acceptance suite: the end-to-end exit checks, all exact.

Each check prints one PASS line (visible with ``pytest -s`` or on
failure) and asserts its runtime budget alongside exact equality of
every compared value.
"""

import random
import time
from itertools import combinations, product as iproduct
from math import gcd

from newtonzeta import (
    Covector,
    IntPoint,
    LatticeFrame,
    SystemSpec,
    candidate_covectors,
    euler_ci_torus,
    face,
    fiber_polytopes,
    hull,
    lattice_volume,
    minkowski_sum,
    mixed_volume_of,
    parse_polynomial,
    q_exponent,
    q_tilde_exponent,
    restrict_system,
    restrict_to_index_set,
    support_min,
    zeta_deformation,
    zeta_polynomial,
    zeta_polynomial_via_cone,
)
from newtonzeta.engine import _strata_for
from tests.conftest import (
    curated_degree_systems,
    deformation_corpus,
    random_polytope,
    route_corpus,
)
from tests.oracle import lattice_point_volume_oracle, stratum_frame


def _report(label: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"{label} exceeded {budget}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")


def test_worked_example_reproduction():
    started = time.monotonic()
    spec = SystemSpec(
        n=2,
        constraints=(parse_polynomial("z1 + z2*(1+z1^2)", ["z1", "z2"]),),
    )
    for scope in ("torus", "affine"):
        z, _ = zeta_deformation(spec, mode="origin", scope=scope)
        assert z.factors == ((1, 2),), scope
    _report("worked-example-reproduction", started, 1.0)


def test_route_equivalence_on_fixed_corpus():
    started = time.monotonic()
    corpus = route_corpus()
    assert len(corpus) >= 25
    for spec in corpus:
        direct, _ = zeta_polynomial(spec, scope="torus")
        via_cone = zeta_polynomial_via_cone(spec)
        assert direct.factors == via_cone.factors, spec
    _report("route-equivalence", started, 30.0)


def test_cone_identity_on_random_tuples():
    started = time.monotonic()
    rng = random.Random(31415)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 3)
        k = rng.randint(0, 2)
        base = random_polytope(rng, n, hi=3)
        others = [random_polytope(rng, n, hi=3) for _ in range(k)]

        def lift(P):
            return hull([IntPoint(v.coords + (0,)) for v in P.vertices])

        apex = IntPoint((0,) * n + (1,))
        cone = hull([IntPoint(v.coords + (0,)) for v in base.vertices] + [apex])
        lhs = q_exponent(
            n + 1, [cone] + [lift(P) for P in others], LatticeFrame.standard(n + 1)
        )
        hyper = LatticeFrame(
            IntPoint((0,) * (n + 1)),
            tuple(
                IntPoint(tuple(1 if j == i else 0 for j in range(n + 1)))
                for i in range(n)
            ),
            n + 1,
        )
        rhs = q_tilde_exponent(n, lift(base), [lift(P) for P in others], hyper)
        assert lhs == rhs, (base, others)
        checked += 1
    _report("cone-identity", started, 20.0)


def test_mixed_volume_oracle_agreement():
    started = time.monotonic()
    rng = random.Random(271828)

    checked = 0
    while checked < 100:
        d = rng.choice([1, 2, 2, 2, 3, 3, 3, 4])
        hi = {1: 5, 2: 5, 3: 4, 4: 3}[d]
        P = random_polytope(rng, d, hi=hi, npts=rng.randint(1, d + 3))
        frame = LatticeFrame.standard(d)
        assert lattice_volume(P, frame) == lattice_point_volume_oracle(P, frame)
        checked += 1

    # mixed volume property suites, all exact
    from math import factorial
    for _ in range(12):
        d = rng.choice([2, 3])
        frame = LatticeFrame.standard(d)
        bodies = [random_polytope(rng, d, hi=3) for _ in range(d)]
        v = mixed_volume_of(bodies, frame)
        assert v >= 0
        shuffled = list(bodies)
        rng.shuffle(shuffled)
        assert mixed_volume_of(shuffled, frame) == v
        shift = IntPoint(tuple(rng.randint(-4, 4) for _ in range(d)))
        moved = [hull([v + shift for v in bodies[0].vertices])] + bodies[1:]
        assert mixed_volume_of(moved, frame) == v
        Q = bodies[0]
        assert mixed_volume_of([Q] * d, frame) == factorial(d) * lattice_volume(Q, frame)

    for _ in range(10):
        frame = LatticeFrame.standard(2)
        A = random_polytope(rng, 2, hi=3)
        B = random_polytope(rng, 2, hi=3)
        S = random_polytope(rng, 2, hi=3)
        assert mixed_volume_of([minkowski_sum(A, B), S], frame) == (
            mixed_volume_of([A, S], frame) + mixed_volume_of([B, S], frame)
        )

    for _ in range(8):
        d = 2
        frame = LatticeFrame.standard(d)
        bodies = [random_polytope(rng, d, hi=3) for _ in range(d)]
        v = mixed_volume_of(bodies, frame)
        mat = [[1, 0], [0, 1]]
        for _ in range(6):
            i, j = rng.sample(range(d), 2)
            c = rng.randint(-2, 2)
            for r in range(d):
                mat[r][i] += c * mat[r][j]

        def apply(P):
            return hull([
                IntPoint(tuple(
                    sum(mat[r][c] * v0.coords[c] for c in range(d))
                    for r in range(d)
                ))
                for v0 in P.vertices
            ])

        assert mixed_volume_of([apply(Q) for Q in bodies], frame) == v
    _report("mixed-volume-oracle", started, 60.0)


def test_explicit_monodromy_small_cases():
    started = time.monotonic()
    # z -> z^a on the line: the fiber is a points permuted cyclically
    for a in (1, 2, 3, 5):
        spec = SystemSpec(
            n=1, constraints=(), objective=parse_polynomial(f"z1^{a}", ["z1"])
        )
        for scope in ("torus", "affine"):
            z, _ = zeta_polynomial(spec, scope=scope)
            assert z.factors == ((a, 1),), (a, scope)
    # z1*z2 on the plane: the fiber is a torus, zeta trivial
    spec = SystemSpec(
        n=2, constraints=(), objective=parse_polynomial("z1*z2", ["z1", "z2"])
    )
    for scope in ("torus", "affine"):
        z, _ = zeta_polynomial(spec, scope=scope)
        assert z.is_one, scope
    _report("explicit-monodromy-small-cases", started, 1.0)


def _primitive_covectors_on(idx: frozenset[int], n: int, bound: int):
    spots = sorted(idx)
    for combo in iproduct(range(-bound, bound + 1), repeat=len(spots)):
        if not any(combo):
            continue
        g = 0
        for c in combo:
            g = gcd(g, c)
        if g != 1:
            continue
        full = [0] * n
        for t, i in enumerate(spots):
            full[i] = combo[t]
        yield Covector(tuple(full))


def test_enumeration_completeness():
    started = time.monotonic()
    bound = 6
    scanned = 0

    # objective-bearing corpus: distinguished-body exponents
    for spec in route_corpus():
        if spec.n > 3:
            continue
        for idx in _strata_for(spec.n, "affine", must_contain_last=False):
            rs = restrict_system(spec, idx)
            obj = rs.objective_restriction
            if obj is None or obj.is_empty:
                continue
            bodies = [obj, *rs.polytopes]
            allowed = {a.comps for a in candidate_covectors(bodies, idx, spec.n)}
            l = len(idx) - 1
            for alpha in _primitive_covectors_on(idx, spec.n, bound):
                scanned += 1
                if support_min(obj, alpha) <= 0:
                    continue
                f0 = face(obj, alpha).face
                fs = [face(P, alpha).face for P in rs.polytopes]
                e = q_tilde_exponent(l, f0, fs, stratum_frame(idx, alpha, spec.n))
                if e != 0:
                    assert alpha.comps in allowed, (spec, idx, alpha)

    # deformation corpus: plain exponents, both covector signs
    for spec in deformation_corpus():
        for idx in _strata_for(spec.n, "affine", must_contain_last=True):
            rs = restrict_system(spec, idx)
            allowed = {
                a.comps for a in candidate_covectors(rs.polytopes, idx, spec.n)
            }
            l = len(idx) - 1
            for alpha in _primitive_covectors_on(idx, spec.n, bound):
                scanned += 1
                fs = [face(P, alpha).face for P in rs.polytopes]
                e = q_exponent(l, fs, stratum_frame(idx, alpha, spec.n))
                if e != 0:
                    assert alpha.comps in allowed, (spec, idx, alpha)

    assert scanned > 10000
    _report("enumeration-completeness", started, 60.0)


def test_degree_euler_consistency():
    started = time.monotonic()
    systems = curated_degree_systems()
    assert len(systems) >= 5
    for spec, expected_chi in systems:
        z, _ = zeta_deformation(spec, mode="origin", scope="affine")
        assert z.degree() == expected_chi

        fibers = fiber_polytopes(spec)
        m = spec.n - 1
        total = 0
        for size in range(1, m + 1):
            for J in combinations(range(m), size):
                survivors = []
                for P in fibers:
                    Q = restrict_to_index_set(P, J)
                    if Q.is_empty:
                        continue  # that equation vanishes identically here
                    survivors.append(hull([
                        IntPoint(tuple(v.coords[i] for i in sorted(J)))
                        for v in Q.vertices
                    ]))
                if len(survivors) > size:
                    continue  # more generic equations than dimension: empty
                total += euler_ci_torus(survivors, size)
        assert z.degree() == total, spec
    _report("degree-euler-consistency", started, 10.0)
