"""The zeta engine: covector enumeration, strata, both zeta modes."""

import random
from itertools import product
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from newtonzeta import (
    IntPoint,
    LatticeFrame,
    SystemSpec,
    ZetaProduct,
    candidate_covectors,
    cone_system,
    euler_ci_torus,
    dim,
    face,
    hull,
    parse_polynomial,
    q_exponent,
    q_tilde_exponent,
    restrict_system,
    zeta_deformation,
    zeta_polynomial,
    zeta_polynomial_via_cone,
)
from newtonzeta import engine, lattice, polytope, systems, volumes
from newtonzeta.engine import _strata_for
from newtonzeta.lattice import _column_reduce
from tests.conftest import deformation_corpus, random_support
from tests.oracle import (euler_ci_projective, euler_ci_torus_of_simplices,
                          newton_number, on_stratum_by_norms, stratum_frame,
                          stratum_traces, zeta_by_strata)


def P(*coords):
    return hull([IntPoint(tuple(c)) for c in coords])


def paper_style_system():
    return SystemSpec(
        n=2,
        constraints=(parse_polynomial("z1 + z2*(1+z1^2)", ["z1", "z2"]),),
    )


# ---------------------------------------------------------------------------
# ZetaProduct
# ---------------------------------------------------------------------------

def test_zeta_product_canonical_form():
    z = ZetaProduct.from_exponents({3: 1, 1: -1, 2: 0})
    assert z.factors == ((1, -1), (3, 1))
    assert z.pretty() == "(1-t)^-1*(1-t^3)"
    assert z.degree() == 2
    assert (z * ZetaProduct.from_exponents({1: 1})).factors == ((3, 1),)


def test_zeta_product_rejects_bad_factors():
    with pytest.raises(ValueError):
        ZetaProduct(((0, 1),))
    with pytest.raises(ValueError):
        ZetaProduct(((1, 0),))
    with pytest.raises(ValueError):
        ZetaProduct(((1, 1), (1, 2)))


# ---------------------------------------------------------------------------
# candidate covectors
# ---------------------------------------------------------------------------

def test_candidates_for_segment_are_the_orthogonal_pair():
    seg = P((0, 0), (1, 1))
    cands = candidate_covectors([seg], {0, 1}, 2)
    assert {a.comps for a in cands} == {(1, -1), (-1, 1)}


def test_candidates_for_full_polytope_are_facet_normals():
    tri = P((1, 0), (0, 1), (2, 1))
    cands = candidate_covectors([tri], {0, 1}, 2)
    assert {a.comps for a in cands} == {(1, 1), (0, -1), (-1, 1)}


def test_candidates_for_empty_list_is_origin_pair():
    cands = candidate_covectors([], {1}, 2)
    assert {a.comps for a in cands} == {(0, 1), (0, -1)}


def test_candidates_empty_when_sum_is_too_small():
    point = P((1, 1))
    assert candidate_covectors([point], {0, 1}, 2) == []


def test_candidates_reject_polytopes_outside_subspace():
    seg = P((0, 0), (1, 1))
    with pytest.raises(ValueError, match="subspace"):
        candidate_covectors([seg], {0}, 2)


def test_candidates_are_primitive_and_sorted():
    sq = P((0, 0), (2, 0), (0, 2), (2, 2))
    cands = candidate_covectors([sq], {0, 1}, 2)
    comps = [a.comps for a in cands]
    assert comps == sorted(comps)
    assert all(gcd(*c) == 1 for c in comps)


# ---------------------------------------------------------------------------
# deformation strata
# ---------------------------------------------------------------------------

def stratum_factors(spec, mode):
    """Per-stratum products, from the affine traces grouped by index_set."""
    _, traces = zeta_deformation(spec, mode=mode, scope="affine")
    grouped = {}
    for t in traces:
        exps = grouped.setdefault(t.index_set, {})
        exps[t.m] = exps.get(t.m, 0) + t.exponent
    return {idx: ZetaProduct.from_exponents(e) for idx, e in grouped.items()}


def test_parameter_axis_stratum_without_constraints():
    spec = SystemSpec.from_supports(2, [[[1, 0]]])  # misses the z2 axis
    assert restrict_system(spec, {1}).k_of_I == 0
    for mode in ("origin", "infinity"):
        assert stratum_factors(spec, mode)[frozenset({1})].factors == ((1, 1),)


def test_parameter_axis_stratum_with_constraint_is_trivial():
    spec = SystemSpec.from_supports(2, [[[0, 1], [1, 1]]])  # meets the z2 axis
    assert restrict_system(spec, {1}).k_of_I == 1
    factors = stratum_factors(spec, "origin")
    assert factors.get(frozenset({1}), ZetaProduct.one()).is_one


def test_two_point_fiber_deformation():
    # the slice {z1 + s(1 + z1^2) = 0} has one root near 0 and one near
    # infinity; the monodromy is trivial on both, so zeta = (1-t)^2
    spec = paper_style_system()
    for scope in ("torus", "affine"):
        z, traces = zeta_deformation(spec, mode="origin", scope=scope)
        assert z.factors == ((1, 2),)
        assert all(t.exponent != 0 for t in traces)


def test_two_point_fiber_deformation_at_infinity():
    spec = paper_style_system()
    z, _ = zeta_deformation(spec, mode="infinity", scope="torus")
    assert z.factors == ((1, 2),)


def test_unconstrained_line_deformation():
    spec = SystemSpec(n=1, constraints=())
    z, _ = zeta_deformation(spec, mode="origin", scope="affine")
    assert z.factors == ((1, 1),)


def test_hyperbola_deformation_at_infinity():
    spec = SystemSpec(
        n=2, constraints=(parse_polynomial("z1*z2 - 1", ["z1", "z2"]),)
    )
    z, _ = zeta_deformation(spec, mode="infinity", scope="torus")
    assert z.factors == ((1, 1),)


def test_monomial_constraints_give_trivial_strata():
    spec = SystemSpec.from_supports(3, [[[1, 1, 0]], [[0, 1, 1]]])
    for mode in ("origin", "infinity"):
        factors = stratum_factors(spec, mode)
        for idx in [{0, 1, 2}, {1, 2}, {0, 2}, {2}]:
            if restrict_system(spec, idx).k_of_I >= 1:
                assert factors.get(frozenset(idx), ZetaProduct.one()).is_one


def test_affine_equals_product_of_strata():
    spec = paper_style_system()
    total, _ = zeta_deformation(spec, mode="origin", scope="affine")
    factors = stratum_factors(spec, "origin")
    assert set(factors) <= {frozenset({1}), frozenset({0, 1})}
    pieces = ZetaProduct.one()
    for idx in [{1}, {0, 1}]:
        piece = ZetaProduct.one()
        for t in stratum_traces(spec, frozenset(idx), +1):
            piece = piece * ZetaProduct(((t.m, t.exponent),))
        assert factors.get(frozenset(idx), ZetaProduct.one()) == piece
        pieces = pieces * piece
    assert total == pieces


def test_deformation_mode_validation():
    spec = SystemSpec(
        n=1, constraints=(), objective=parse_polynomial("z1", ["z1"])
    )
    with pytest.raises(ValueError, match="deformation"):
        zeta_deformation(spec)
    with pytest.raises(ValueError, match="mode"):
        zeta_deformation(SystemSpec(n=1, constraints=()), mode="sideways")
    with pytest.raises(ValueError, match="scope"):
        zeta_deformation(SystemSpec(n=1, constraints=()), scope="everywhere")


def _reflected(spec):
    """Each F_i(z', 1/z_n) z_n^D_i, D_i the largest z_n exponent of F_i."""
    supports = []
    for poly in spec.constraints:
        support = list(poly.as_dict())
        top = max(e[-1] for e in support)
        supports.append([e[:-1] + (top - e[-1],) for e in support])
    return SystemSpec.from_supports(spec.n, supports)


def _trace_multiset(traces, flip):
    """Traces as sorted tuples, alpha's last entry times ``flip``."""
    return sorted(
        (sorted(t.index_set), t.m, t.exponent, t.face_dims,
         None if t.alpha is None else t.alpha.comps[:-1] + (flip * t.alpha.comps[-1],))
        for t in traces
    )


@st.composite
def _deformations(draw):
    n = draw(st.integers(2, 4))
    point = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    support = st.lists(point, min_size=1, max_size=4, unique=True)
    k = draw(st.integers(1, n - 1))
    return SystemSpec.from_supports(n, draw(st.lists(support, min_size=k, max_size=k)))


def test_infinity_mode_is_origin_mode_of_the_reflected_system():
    # z_n -> 1/z_n swaps the two ends of the parameter axis: the same
    # strata, powers, exponents and face dims, alpha's last entry negated
    def check(spec):
        reflected = _reflected(spec)
        for scope in ("torus", "affine"):
            z, traces = zeta_deformation(spec, "infinity", scope)
            z_r, traces_r = zeta_deformation(reflected, "origin", scope)
            assert z == z_r
            assert _trace_multiset(traces, -1) == _trace_multiset(traces_r, 1)

    for spec in deformation_corpus():
        check(spec)
    settings(max_examples=200, deadline=None, derandomize=True)(
        given(_deformations())(check))()


def test_origin_mode_is_the_polynomial_z_n_on_the_intersection():
    # the deformation at the origin is the function z_n on the same
    # intersection: the same product, and the same traces in order once
    # the objective's face, a point of dimension 0, leaves the face dims;
    # the point objective's boundary factor and "keep" terms are all 0
    def check(spec):
        z_n = SystemSpec(spec.n, spec.constraints, parse_polynomial(
            f"z{spec.n}", [f"z{i + 1}" for i in range(spec.n)]))
        for scope in ("torus", "affine"):
            z, traces = zeta_deformation(spec, "origin", scope)
            z_p, traces_p = zeta_polynomial(z_n, scope)
            assert z == z_p
            assert all(t.face_dims[0] == 0 for t in traces_p)
            assert ([(t.index_set, t.alpha, t.m, t.exponent, t.face_dims)
                     for t in traces]
                    == [(t.index_set, t.alpha, t.m, t.exponent, t.face_dims[1:])
                        for t in traces_p])

    for spec in deformation_corpus():
        check(spec)
    settings(max_examples=300, deadline=None, derandomize=True)(
        given(_deformations())(check))()


# ---------------------------------------------------------------------------
# polynomial on a complete intersection
# ---------------------------------------------------------------------------

def test_power_map_monodromy():
    # z -> z^a cyclically permutes the a points of a fiber: zeta = 1 - t^a
    for a in (1, 2, 3, 5):
        spec = SystemSpec(
            n=1, constraints=(),
            objective=parse_polynomial(f"z1^{a}", ["z1"]),
        )
        for scope in ("torus", "affine"):
            z, _ = zeta_polynomial(spec, scope=scope)
            assert z.factors == ((a, 1),), (a, scope)


def test_monomial_on_two_torus_is_trivial():
    # the fiber of z1*z2 over a small circle is a torus C*, zeta = 1
    spec = SystemSpec(
        n=2, constraints=(),
        objective=parse_polynomial("z1*z2", ["z1", "z2"]),
    )
    for scope in ("torus", "affine"):
        z, _ = zeta_polynomial(spec, scope=scope)
        assert z.is_one


def test_objective_with_constant_term_has_no_covector_factors():
    # no covector has positive minimum once 0 lies in the support; only
    # the stratum boundary factor remains, here (1-t)^1 for one regular
    # fiber point of 1 + z1 on the torus
    spec = SystemSpec(
        n=1, constraints=(), objective=parse_polynomial("1 + z1", ["z1"])
    )
    z, traces = zeta_polynomial(spec, scope="torus")
    assert all(t.alpha is None for t in traces)
    assert z.factors == ((1, 1),)
    assert zeta_polynomial_via_cone(spec) == z


def test_quadratic_objective_boundary_factor():
    # z + z^2 has two fiber points over small values, both monodromy
    # fixed: (1-t)^2, one factor from the covector product and one from
    # the stratum boundary
    spec = SystemSpec(
        n=1, constraints=(), objective=parse_polynomial("z1 + z1^2", ["z1"])
    )
    z, traces = zeta_polynomial(spec, scope="torus")
    assert z.factors == ((1, 2),)
    kinds = {t.alpha is None for t in traces}
    assert kinds == {True, False}
    assert zeta_polynomial_via_cone(spec) == z


def test_objective_on_line_constraint():
    spec = SystemSpec(
        n=2,
        constraints=(parse_polynomial("z1 + z2 - 1", ["z1", "z2"]),),
        objective=parse_polynomial("z1", ["z1", "z2"]),
    )
    z, _ = zeta_polynomial(spec, scope="torus")
    assert z.factors == ((1, 1),)
    assert zeta_polynomial_via_cone(spec) == z


def test_polynomial_zeta_requires_objective():
    with pytest.raises(ValueError, match="objective"):
        zeta_polynomial(SystemSpec(n=1, constraints=()))


def test_route_equivalence_on_random_systems():
    rng = random.Random(13579)
    for _ in range(20):
        n = rng.randint(1, 3)
        k = rng.randint(0, min(1, n - 1))
        spec = SystemSpec.from_supports(
            n,
            [random_support(rng, n) for _ in range(k)],
            objective_support=random_support(rng, n),
        )
        direct, _ = zeta_polynomial(spec, scope="torus")
        assert direct == zeta_polynomial_via_cone(spec)


def test_route_equivalence_extends_to_affine_scope():
    rng = random.Random(97531)
    for _ in range(12):
        n = rng.randint(1, 3)
        k = rng.randint(0, min(1, n - 1))
        spec = SystemSpec.from_supports(
            n,
            [random_support(rng, n) for _ in range(k)],
            objective_support=random_support(rng, n),
        )
        direct, _ = zeta_polynomial(spec, scope="affine")
        lifted = cone_system(spec)
        via, _ = zeta_deformation(lifted, mode="origin", scope="affine")
        assert direct == via


# ---------------------------------------------------------------------------
# Euler characteristics and degrees
# ---------------------------------------------------------------------------

def test_euler_generic_line_in_two_torus():
    tri = P((0, 0), (1, 0), (0, 1))
    assert euler_ci_torus([tri], 2) == -1


def test_euler_full_torus():
    for n in (1, 2, 3):
        assert euler_ci_torus([], n) == 0
    assert euler_ci_torus([], 0) == 1


def test_euler_transverse_segments():
    segs = [P((0, 0), (1, 0)), P((0, 0), (0, 1))]
    assert euler_ci_torus(segs, 2) == 1


def test_euler_empty_polytope_guard():
    assert euler_ci_torus([hull([], ambient_dim=2)], 2) == 0


def test_euler_rejects_too_many_equations():
    seg = P((0, 0), (1, 0))
    with pytest.raises(ValueError, match="more equations"):
        euler_ci_torus([seg, seg, seg], 2)


def test_degree_examples():
    assert ZetaProduct.from_exponents({1: 2}).degree() == 2
    assert ZetaProduct.one().degree() == 0
    assert ZetaProduct.from_exponents({3: 1, 1: -1}).degree() == 2


def test_trace_exponents_multiply_to_headline():
    spec = paper_style_system()
    z, traces = zeta_deformation(spec, mode="origin", scope="affine")
    rebuilt: dict[int, int] = {}
    for t in traces:
        rebuilt[t.m] = rebuilt.get(t.m, 0) + t.exponent
    assert ZetaProduct.from_exponents(rebuilt) == z


def test_cyclic_root_deformations():
    # z1^a + z2: the slice z2 = -s has the a-th roots of -s as its fiber,
    # cyclically permuted by the monodromy: zeta = 1 - t^a
    for a in (2, 3, 4):
        spec = SystemSpec(
            n=2,
            constraints=(parse_polynomial(f"z1^{a} + z2", ["z1", "z2"]),),
        )
        for scope in ("torus", "affine"):
            z, _ = zeta_deformation(spec, mode="origin", scope=scope)
            assert z.factors == ((a, 1),), (a, scope)


def test_square_root_swap_has_power_two_factor():
    # z1^2 - z2: the two square roots of s are swapped around s = 0
    spec = SystemSpec(
        n=2, constraints=(parse_polynomial("z1^2 - z2", ["z1", "z2"]),)
    )
    z, _ = zeta_deformation(spec, mode="origin", scope="affine")
    assert z.factors == ((2, 1),)

    # z2*z1^2 - 1: fiber z1^2 = 1/s, swapped at the origin and at infinity
    spec = SystemSpec(
        n=2, constraints=(parse_polynomial("z2*z1^2 - 1", ["z1", "z2"]),)
    )
    for mode in ("origin", "infinity"):
        z, _ = zeta_deformation(spec, mode=mode, scope="torus")
        assert z.factors == ((2, 1),), mode


def test_point_fiber_two_constraints():
    spec = SystemSpec(
        n=3,
        constraints=(
            parse_polynomial("z1 - z3", ["z1", "z2", "z3"]),
            parse_polynomial("z2 - z3", ["z1", "z2", "z3"]),
        ),
    )
    z, _ = zeta_deformation(spec, mode="origin", scope="affine")
    assert z.factors == ((1, 1),)


def test_curve_fiber_with_negative_euler_characteristic():
    # z1 + z2 + z1*z2 + z3, deformed in z3: the slice over s is the graph
    # z2 = (-s - z1)/(1 + z1), a copy of C minus a point (chi = 0); inside
    # the torus two further points are removed (z1 = 0 and z2 = 0), so
    # chi = -2; the monodromy is trivial in both cases
    spec = SystemSpec(
        n=3,
        constraints=(
            parse_polynomial("z1 + z2 + z1*z2 + z3", ["z1", "z2", "z3"]),
        ),
    )
    torus, _ = zeta_deformation(spec, mode="origin", scope="torus")
    assert torus.factors == ((1, -2),)
    affine, _ = zeta_deformation(spec, mode="origin", scope="affine")
    assert affine.is_one


def test_quadratic_slice_swaps_roots_only_at_infinity():
    # s + z1 + z1^2: near s = 0 the two roots stay apart (one near 0, one
    # near -1), at large s they are the two branches of +-sqrt(-s) and the
    # monodromy swaps them; degrees agree since both fibers have chi = 2
    spec = SystemSpec.from_supports(2, [[[0, 1], [1, 0], [2, 0]]])
    zo, _ = zeta_deformation(spec, mode="origin", scope="affine")
    zi, _ = zeta_deformation(spec, mode="infinity", scope="affine")
    assert zo.factors == ((1, 2),)
    assert zi.factors == ((2, 1),)
    assert zo.degree() == zi.degree() == 2


def test_route_equivalence_with_two_constraints():
    rng = random.Random(321)
    for _ in range(8):
        spec = SystemSpec.from_supports(
            3,
            [random_support(rng, 3, hi=2) for _ in range(2)],
            objective_support=random_support(rng, 3, hi=2),
        )
        direct, _ = zeta_polynomial(spec, scope="torus")
        assert direct == zeta_polynomial_via_cone(spec)


def test_polynomial_degree_equals_generic_fiber_chi():
    # deg zeta of the objective on the torus equals the Euler
    # characteristic of a generic fiber {objective = c}, whose Newton
    # polytope is the objective's with the origin adjoined
    from newtonzeta import IntPoint as IP, newton_polytope

    rng = random.Random(515)
    for _ in range(25):
        n = rng.randint(1, 3)
        k = rng.randint(0, min(1, n - 1))
        spec = SystemSpec.from_supports(
            n,
            [random_support(rng, n) for _ in range(k)],
            objective_support=random_support(rng, n),
        )
        z, _ = zeta_polynomial(spec, scope="torus")
        generic_fiber = hull(
            [IP((0,) * n)] + list(newton_polytope(spec.objective).vertices)
        )
        chi = euler_ci_torus(
            [generic_fiber] + [newton_polytope(c) for c in spec.constraints], n
        )
        assert z.degree() == chi


@st.composite
def _convenient_supports(draw):
    """n <= 3: a point c_i e_i on every axis, c_i <= 3, and up to three
    other nonzero points of [0, 2]^n."""
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(1, 3)
    axes = {tuple(rng.randint(1, 3) * (j == i) for j in range(n)) for i in range(n)}
    box = [p for p in product(range(3), repeat=n) if any(p)]
    return n, sorted(axes | set(rng.sample(box, rng.randint(0, min(3, len(box))))))


def test_affine_degree_is_kouchnirenkos_fiber_chi():
    # a convenient objective with f(0) = 0: the affine zeta has the degree
    # 1 + (-1)^(n-1) nu of Kouchnirenko's Newton number, counted by the
    # lattice-point oracle with no mixed-area recursion
    sup = [(3, 0, 0), (0, 4, 0), (0, 0, 5), (1, 1, 1)]
    z, _ = zeta_polynomial(SystemSpec.from_supports(3, [], sup), scope="affine")
    assert z.factors == ((1, 13), (3, 1), (4, 1), (5, 1))
    assert z.degree() == 25 == 1 + newton_number(sup, 3)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_convenient_supports())
    def check(case):
        n, sup = case
        z, _ = zeta_polynomial(SystemSpec.from_supports(n, [], sup), scope="affine")
        assert z.degree() == 1 + (-1) ** (n - 1) * newton_number(sup, n)

    check()


def _simplex_points(d, n):
    """The lattice points of d * Delta_n."""
    return [p for p in product(range(d + 1), repeat=n) if sum(p) <= d]


@st.composite
def _simplex_degrees(draw, codim):
    """n <= 5 and 1 <= k <= n - codim degrees, each at most 3."""
    n = draw(st.integers(1 + codim, 5))
    k = draw(st.integers(1, n - codim))
    return n, draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_simplex_degrees(0))
def test_euler_of_simplices_is_bernstein_khovanskii(case):
    n, degrees = case
    bodies = [P(*_simplex_points(d, n)) for d in degrees]
    assert euler_ci_torus(bodies, n) == euler_ci_torus_of_simplices(degrees, n)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_simplex_degrees(1))
def test_affine_degree_of_simplices_is_hirzebruch(case):
    # supports d_i * Delta_n: the generic fiber {z_n = c} is a complete
    # intersection in C^(n-1), its closure in P^(n-1) less the one at
    # infinity in P^(n-2), and deg zeta is its Euler characteristic
    n, degrees = case
    spec = SystemSpec.from_supports(n, [_simplex_points(d, n) for d in degrees])
    chi = euler_ci_projective(degrees, n - 1) - euler_ci_projective(degrees, n - 2)
    for mode in ("origin", "infinity"):
        assert zeta_deformation(spec, mode, "affine")[0].degree() == chi, mode


def test_monomial_change_fixing_parameter_axis():
    # a monomial substitution on the non-parameter variables is an
    # automorphism of the torus fixing the parameter, so the torus-scope
    # zetas are unchanged; it does not extend to affine space, and the
    # affine stratification genuinely changes with it
    rng = random.Random(4321)
    for _ in range(10):
        n = 3
        sup = [random_support(rng, n) for _ in range(rng.randint(1, 2))]
        spec = SystemSpec.from_supports(n, sup)
        a = rng.randint(1, 3)
        if rng.random() < 0.5:
            mat = [[1, a, 0], [0, 1, 0], [0, 0, 1]]
        else:
            mat = [[1, 0, 0], [a, 1, 0], [0, 0, 1]]

        def apply(e):
            return [
                sum(mat[r][c] * e[c] for c in range(n)) for r in range(n)
            ]

        mapped = [[apply(e) for e in s] for s in sup]
        spec2 = SystemSpec.from_supports(n, mapped)
        for mode in ("origin", "infinity"):
            z1, _ = zeta_deformation(spec, mode=mode, scope="torus")
            z2, _ = zeta_deformation(spec2, mode=mode, scope="torus")
            assert z1 == z2


def test_torus_zeta_is_invariant_under_monomials_and_permutations():
    # on the torus a monomial factor does not move the zero set of a
    # constraint, and neither does reordering the constraints or the
    # non-parameter variables; the translated and permuted supports are
    # fresh hull and volume inputs
    rng = random.Random(1122)
    for spec in deformation_corpus():
        n = spec.n
        sups = [[e for e, _ in c.terms] for c in spec.constraints]
        i = rng.randrange(len(sups))
        shift = [rng.randint(0, 2) for _ in range(n)]
        shift[rng.randrange(n)] += 1
        translated = [[tuple(map(sum, zip(e, shift))) for e in s] if j == i else s
                      for j, s in enumerate(sups)]
        perm = rng.sample(range(n - 1), n - 1) + [n - 1]
        variants = [translated, sups[::-1],
                    [[tuple(e[p] for p in perm) for e in s] for s in sups]]
        for mode in ("origin", "infinity"):
            want, _ = zeta_deformation(spec, mode=mode, scope="torus")
            for supports in variants:
                got, _ = zeta_deformation(SystemSpec.from_supports(n, supports),
                                          mode=mode, scope="torus")
                assert got == want
        # z_n -> 1/z_n, each constraint shifted back to nonnegative exponents,
        # turns the fibre at infinity into the fibre at the origin
        flipped = [[tuple(e[:-1]) + (max(f[-1] for f in s) - e[-1],) for e in s]
                   for s in sups]
        got, _ = zeta_deformation(SystemSpec.from_supports(n, flipped),
                                  mode="origin", scope="torus")
        assert got == zeta_deformation(spec, mode="infinity", scope="torus")[0]


def test_monomial_changes_beyond_shears_keep_the_torus_zeta():
    # z' = z^A on the non-parameter variables, A in GL(n-1, Z) with
    # negative entries and sign flips, is a torus automorphism fixing the
    # parameter; each support is then multiplied back to nonnegative
    # exponents.  These supports reach covectors whose hyperplane lattice
    # has index |alpha_j| > 1.
    rng = random.Random(2468)
    indices = set()
    for n in (3, 3, 3, 4, 4, 4):
        m = n - 1
        mat = [[int(r == c) for c in range(m)] for r in range(m)]
        for _ in range(3):
            r, c = rng.sample(range(m), 2)
            a = rng.choice([-2, -1, 1, 2])
            mat[r] = [x + a * y for x, y in zip(mat[r], mat[c])]
        rng.shuffle(mat)
        mat = [[-x for x in row] if rng.random() < 0.5 else row for row in mat]
        sups = [random_support(rng, n, npts=rng.randint(2, 4))
                for _ in range(rng.randint(1, n - 1))]
        mapped = []
        for s in sups:
            image = [[sum(row[c] * e[c] for c in range(m)) for row in mat] + [e[-1]]
                     for e in s]
            low = [min(col) for col in zip(*image)]
            mapped.append([[x - y for x, y in zip(e[:m], low)] + [e[-1]] for e in image])
        spec, spec2 = (SystemSpec.from_supports(n, x) for x in (sups, mapped))
        for mode in ("origin", "infinity"):
            z1, _ = zeta_deformation(spec, mode=mode, scope="torus")
            z2, traces = zeta_deformation(spec2, mode=mode, scope="torus")
            assert z1 == z2, (sups, mat)
            indices.update(min(abs(c) for c in t.alpha.comps if c) for t in traces)
    assert max(indices) > 1


# ---------------------------------------------------------------------------
# the stratum measure against the kernel-frame oracle
# ---------------------------------------------------------------------------

def _supports(n, count):
    point = st.lists(st.integers(0, 4), min_size=n, max_size=n).map(tuple)
    return st.lists(st.lists(point, min_size=2, max_size=4, unique=True),
                    min_size=count, max_size=count)


@st.composite
def _small_systems(draw):
    n = draw(st.integers(2, 4))
    k = draw(st.integers(0, n - 1))
    constraints = draw(_supports(n, k))
    if draw(st.booleans()):
        return SystemSpec.from_supports(n, constraints)
    return SystemSpec.from_supports(n, constraints[: n - 1],
                                    objective_support=draw(_supports(n, 1))[0])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_small_systems())
def test_stratum_measure_matches_kernel_frames(spec):
    if spec.objective is None:
        runs = [zeta_deformation(spec, mode=mode)[1] for mode in ("origin", "infinity")]
    else:
        runs = [zeta_polynomial(spec)[1]]
    for trace in (t for traces in runs for t in traces):
        rs = restrict_system(spec, trace.index_set)
        l = len(trace.index_set) - 1
        bodies = list(rs.polytopes)
        if spec.objective is not None:
            bodies.insert(0, rs.objective_restriction)
        if trace.alpha is None:
            assert trace.face_dims == tuple(dim(b) for b in bodies)
            units = [IntPoint(tuple(int(j == i) for j in range(spec.n)))
                     for i in sorted(trace.index_set)]
            want = q_exponent(l + 1, bodies, LatticeFrame.span_of(units, spec.n))
        else:
            assert trace.face_dims == tuple(dim(face(P, trace.alpha).face)
                                            for P in bodies)
            frame = stratum_frame(trace.index_set, trace.alpha, spec.n)
            faces = [face(P, trace.alpha).face for P in rs.polytopes]
            if spec.objective is None:
                want = q_exponent(l, faces, frame)
            else:
                f0 = face(rs.objective_restriction, trace.alpha).face
                want = q_tilde_exponent(l, f0, faces, frame)
        assert trace.exponent == want, trace


@st.composite
def _signed_polytopes(draw):
    """A hull of points of [-2, 2]^n, n <= 4, half their coordinates 0,
    and a nonempty index set."""
    rng = draw(st.randoms(use_true_random=False))
    n = rng.randint(1, 4)
    coords = [0, 0, 0, 0, -2, -1, 1, 2]
    pts = {tuple(rng.choice(coords) for _ in range(n)) for _ in range(rng.randint(1, 8))}
    idx = sorted(rng.sample(range(n), rng.randint(1, n)))
    return P(*pts), idx


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_signed_polytopes())
def test_stratum_read_by_masks_matches_the_norm_rule(case):
    body, idx = case
    got = engine._on_stratum(engine._supports(body), idx)
    assert got == tuple(on_stratum_by_norms(body.raw_vertices(), idx))


# ---------------------------------------------------------------------------
# the strata driver against the oracle that skips no stratum
# ---------------------------------------------------------------------------

def _skip_of(spec, index_set):
    """The first of the engine's skips that a stratum meets, or None."""
    rs = restrict_system(spec, index_set)
    if rs.k_of_I >= len(index_set):
        return "constraints"
    if any(len(P.vertices) == 1 for P in rs.polytopes):
        return "monomial"
    if rs.objective_restriction is not None and rs.objective_restriction.is_empty:
        return "objective"
    return None


@st.composite
def _sparse_systems(draw):
    """n <= 4 with monomial constraints among the others; most exponents
    are 0, so that constraints and objectives miss many strata."""
    n = draw(st.integers(2, 4))
    point = st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=n, max_size=n)
    support = st.lists(point.map(tuple), min_size=1, max_size=4, unique=True)
    constraints = draw(st.lists(support, max_size=n - 1))
    if draw(st.booleans()):
        return SystemSpec.from_supports(n, constraints)
    return SystemSpec.from_supports(n, constraints, objective_support=draw(support))


def test_strata_driver_matches_the_unskipped_oracle():
    # traces and products equal exactly, in both modes and at both scopes;
    # the engine measures the strata that no skip names, and each skip
    # is reached
    reached = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_sparse_systems())
    def check(spec):
        signs = [None] if spec.objective is not None else [+1, -1]
        for sign, scope in product(signs, ("torus", "affine")):
            engine._stratum_traces.cache_clear()
            with mock.patch.object(engine, "_sum_normals",
                                   wraps=engine._sum_normals) as enumeration:
                if sign is None:
                    got = zeta_polynomial(spec, scope)
                else:
                    mode = "origin" if sign > 0 else "infinity"
                    got = zeta_deformation(spec, mode, scope)
            assert got == zeta_by_strata(spec, scope, sign)
            skips = [_skip_of(spec, idx)
                     for idx in _strata_for(spec.n, scope, sign is not None)]
            assert enumeration.call_count == skips.count(None)
            reached.update(skips)

    check()
    assert reached == {None, "constraints", "monomial", "objective"}


def test_stratum_measure_runs_no_kernel(monkeypatch):
    # a cold n = 3 deformation reads each hyperplane lattice off its
    # covector, among them (0, 2, 3) and (3, 2, 3) of index 2; a kernel
    # frame per covector made 5 kernels and 40 reductions here,
    # measuring the strata that cannot contribute made 29, reducing
    # a simplicial Cayley set's cell again after its rank test made 26,
    # reducing each face of two points for its dimension made 22, and
    # reducing each measured stratum's standard frame twice to check its
    # unit basis made 20, reducing each flat sum again for its line
    # normal, which its DD now reads off its first reduction, made 14, and
    # projecting each flat set and reducing the projection again made 12
    for memo in (polytope._dd, volumes._q_sum_of, engine._stratum_traces):
        memo.cache_clear()
    calls = {"reduce": 0}

    def counted(rows, n):
        calls["reduce"] += 1
        return _column_reduce(rows, n)

    for mod in (lattice, polytope, volumes):
        monkeypatch.setattr(mod, "_column_reduce", counted)
    spec = SystemSpec.from_supports(
        3, [[[2, 0, 0], [0, 3, 0], [1, 1, 1], [0, 0, 2], [3, 2, 1]]])
    z, traces = zeta_deformation(spec, mode="origin", scope="affine")
    assert z.factors == ((1, 2), (3, -1), (7, -1))
    assert {(0, 2, 3), (3, 2, 3)} <= {t.alpha.comps for t in traces}
    assert calls == {"reduce": 8}
    # a warm repeat reduces nothing: each measured stratum's finished
    # traces come from ``_stratum_traces``, which reduced each of the two
    # faces of three points for its dimension once, when it was cold
    calls.update(reduce=0)
    assert zeta_deformation(spec, mode="origin", scope="affine") == (z, traces)
    assert calls == {"reduce": 0}


def test_stratum_measure_wraps_no_face(monkeypatch):
    # the faces at each covector go to the frame sum as tuples: the only
    # polytopes the deformation above builds are its Newton polytopes
    built = []
    init = polytope.LatticePolytope.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(polytope.LatticePolytope, "__init__", counted)
    spec = SystemSpec.from_supports(
        3, [[[2, 0, 0], [0, 3, 0], [1, 1, 1], [0, 0, 2], [3, 2, 1]]])
    z, traces = zeta_deformation(spec, mode="origin", scope="affine")
    assert z.factors == ((1, 2), (3, -1), (7, -1)) and len(traces) > 1
    assert built == list(spec.newton_polytopes)


def test_newton_polytopes_are_built_once_per_system(monkeypatch):
    # the strata restrict the spec's polytopes; none is rebuilt per stratum
    built = []

    def counted(p):
        built.append(p)
        return newton_polytope(p)

    newton_polytope = systems.newton_polytope
    monkeypatch.setattr(systems, "newton_polytope", counted)
    deformation = SystemSpec.from_supports(
        4, [[[1, 0, 0, 0], [0, 2, 0, 1], [0, 0, 1, 1]],
            [[0, 1, 0, 0], [2, 0, 1, 0], [0, 0, 0, 2]]])
    zeta_deformation(deformation, "origin", "affine")
    assert built == list(deformation.constraints)
    built.clear()
    polynomial = SystemSpec.from_supports(
        4, [[[1, 0, 0, 0], [0, 2, 0, 1], [0, 0, 1, 1]]],
        objective_support=[[0, 1, 0, 0], [2, 0, 1, 0], [0, 0, 0, 2]])
    zeta_polynomial(polynomial, "affine")
    assert built == [*polynomial.constraints, polynomial.objective]


def test_each_measured_stratum_builds_one_frame(monkeypatch):
    # the one frame of a measured stratum is ``_stratum_traces``'s: the
    # polynomial's boundary factor is measured in Z^|I| with no frame, so
    # both modes build as many frames as they measure strata
    frames = []
    init = lattice.LatticeFrame.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        frames.append(self)

    monkeypatch.setattr(lattice.LatticeFrame, "__init__", counted)
    deformation = SystemSpec.from_supports(
        4, [[[1, 0, 0, 0], [0, 2, 0, 1], [0, 0, 1, 1]],
            [[0, 1, 0, 0], [2, 0, 1, 0], [0, 0, 0, 2]]])
    polynomial = SystemSpec.from_supports(
        4, [[[1, 0, 0, 0], [0, 2, 0, 1], [0, 0, 1, 1]]],
        objective_support=[[0, 1, 0, 0], [2, 0, 1, 0], [0, 0, 0, 2]])
    for zeta, args, strata in ((zeta_deformation, (deformation, "origin"), 4),
                               (zeta_polynomial, (polynomial,), 7)):
        frames.clear()
        engine._stratum_traces.cache_clear()
        with mock.patch.object(engine, "_stratum_traces",
                               wraps=engine._stratum_traces) as measured:
            zeta(*args, scope="affine")
        assert len(frames) == measured.call_count == strata
