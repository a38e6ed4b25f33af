"""Parsing, Newton polytopes, restriction, the cone construction."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from newtonzeta import (
    ParseError,
    PolynomialInput,
    SystemSpec,
    cone_system,
    fiber_polytopes,
    format_polynomial,
    minkowski_sum,
    newton_polytope,
    parse_polynomial,
    restrict_system,
    restrict_to_index_set,
)
from newtonzeta.systems import _Parser
from tests.oracle import expand_expression


def test_parse_expands_products():
    p = parse_polynomial("z1 + z2*(1+z1^2)", ["z1", "z2"])
    assert p.as_dict() == {(1, 0): 1, (0, 1): 1, (2, 1): 1}


def test_parse_constant():
    p = parse_polynomial("3", ["z1", "z2"])
    assert p.as_dict() == {(0, 0): 3}


def test_parse_zero_polynomial_rejected():
    with pytest.raises(ParseError, match="zero polynomial"):
        parse_polynomial("z1 - z1", ["z1"])


def test_parse_drops_a_product_term_that_cancels():
    # z1 * 1 cancels -1 * z1 inside one product; the term must go, so the
    # text below is the zero polynomial
    assert parse_polynomial("(z1+1)*(z1-1)", ["z1"]).as_dict() == {(2,): 1, (0,): -1}
    with pytest.raises(ParseError, match="zero polynomial"):
        parse_polynomial("(z1+1)*(z1-1) - z1^2 + 1", ["z1"])


def test_variables_may_be_any_iterable():
    # the names are read once, so a one-shot iterator acts as the list does
    names = ["z1", "z2"]
    p = parse_polynomial("z1+z2", names)
    assert parse_polynomial("z1+z2", iter(names)) == p
    assert format_polynomial(p, iter(names)) == format_polynomial(p, names) == "z1 + z2"


def test_parse_rational_coefficients():
    p = parse_polynomial("1/2*z1 + 3/4", ["z1"])
    assert p.as_dict() == {(1,): Fraction(1, 2), (0,): Fraction(3, 4)}


def test_parsed_coefficients_are_fractions():
    # the parser works in ints until a "/", and the stored terms are all
    # Fractions, integer-only text too; the printed text parses back to
    # the same terms, types included
    variables = ["x", "y"]
    for text in ("3*x^2*y - 2*(x + y)^2 + 7", "4/2*x - y^3", "-(x - 1)^3"):
        p = parse_polynomial(text, variables)
        assert all(type(c) is Fraction for _e, c in p.terms), text
        again = parse_polynomial(format_polynomial(p, variables), variables)
        assert again == p
        assert [type(c) for _e, c in again.terms] == [Fraction] * len(p.terms)
    assert parse_polynomial("4/2*x - y^3", variables).as_dict() == {(1, 0): 2, (0, 3): -1}


def test_parse_coefficient_variable_juxtaposition():
    p = parse_polynomial("3z1^2 + 2 z2", ["z1", "z2"])
    assert p.as_dict() == {(2, 0): 3, (0, 1): 2}


def test_parse_variable_juxtaposition_rejected():
    with pytest.raises(ParseError, match="implicit multiplication"):
        parse_polynomial("z1 z2", ["z1", "z2"])


def test_parse_unknown_variable_reports_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("z1 + bad", ["z1"])
    assert err.value.position == 5


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError, match="negative exponent"):
        parse_polynomial("z1^-2", ["z1"])


def test_parse_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("z1 + * z2", ["z1", "z2"])
    assert err.value.position == 5


def test_parse_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        parse_polynomial("(z1 + z2", ["z1", "z2"])


def test_parse_leading_minus():
    p = parse_polynomial("-z1 + 2", ["z1"])
    assert p.as_dict() == {(1,): -1, (0,): 2}


def test_parse_parenthesized_power():
    p = parse_polynomial("(1 + z1)^2", ["z1"])
    assert p.as_dict() == {(0,): 1, (1,): 2, (2,): 1}


def test_parse_numeric_power_is_a_coefficient():
    p = parse_polynomial("2^3*z1", ["z1"])
    assert p.as_dict() == {(1,): 8}


def test_parse_large_power_by_repeated_squaring():
    start = time.perf_counter()
    p = parse_polynomial("z1^1000000 + z2", ["z1", "z2"])
    assert time.perf_counter() - start < 0.5
    assert p.as_dict() == {(1000000, 0): 1, (0, 1): 1}
    assert parse_polynomial("(z1 - 2)^5", ["z1"]).as_dict() == {
        (5,): 1, (4,): -10, (3,): 40, (2,): -80, (1,): 80, (0,): -32,
    }


def test_parse_zero_denominator_rejected():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial("1/0 + z1", ["z1"])


def test_parse_reads_only_decimal_digits():
    # superscripts and subscripts pass str.isdigit() but not int()
    for text, char, position in (("2²", "²", 1), ("z1^²", "²", 3), ("₂*z1", "₂", 0)):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, ["z1"])
        assert str(err.value) == f"unexpected character {char!r} (at position {position})"
        assert err.value.position == position
    assert parse_polynomial("٣*z1", ["z1"]).as_dict() == {(1,): 3}


def test_oversized_powers_fail_fast_and_signed_powers_parse_fast():
    # a power is built by repeated squaring with the digit bound checked on
    # each product, so a huge power of -z1 takes about a hundred products
    for text, position in (("2^" + "9" * 50, 2), ("(3/7)^9000", 6)):
        start = time.perf_counter()
        with pytest.raises(ParseError, match="more than 4300 digits") as err:
            parse_polynomial(text, ["z1"])
        assert time.perf_counter() - start < 1
        assert err.value.position == position
    start = time.perf_counter()
    p = parse_polynomial("(-z1)^" + "9" * 30, ["z1"])
    assert time.perf_counter() - start < 1
    assert p.as_dict() == {(10**30 - 1,): -1}


def test_monomial_scan_hands_over_where_the_products_go_on():
    # a term's leading numbers and variables are multiplied in one pass;
    # the first factor of another kind, and a coefficient that reaches
    # the digit bound, go on through the general products
    names = ["z1", "z2", "z3", "z4"]
    assert parse_polynomial("2*37/2", names).as_dict() == {(0, 0, 0, 0): 37}
    assert parse_polynomial("z1^" + "9" * 50 + "*3*2^3", names).as_dict() == \
        {(10**50 - 1, 0, 0, 0): 24}
    for text, message in (
        ("z1*23/", "expected an integer denominator (at position 6)"),
        ("+z2*22/3 z22", "unknown variable 'z22' (at position 9)"),
        ("3 z2xz1", "unknown variable 'z2xz1' (at position 2)"),
        ("z1*" + "9" * 2200 + "*" + "9" * 2200,
         "coefficient of more than 4300 digits (at position 2203)"),
    ):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, names)
        assert str(err.value) == message, text[:20]


def test_monomial_terms_build_no_products(monkeypatch):
    calls = []
    mul = _Parser._mul
    monkeypatch.setattr(_Parser, "_mul", staticmethod(
        lambda a, b, at: calls.append(at) or mul(a, b, at)))
    text = "- 4*z4^3 - 4*z3^2 + 4*z2^2*z3*z4^3 - 5*z1*z3^3*z4^3"
    p = parse_polynomial(text, ["z1", "z2", "z3", "z4"])
    assert p.as_dict() == {(0, 0, 0, 3): -4, (0, 0, 2, 0): -4,
                           (0, 2, 1, 3): 4, (1, 0, 3, 3): -5}
    assert calls == []



@pytest.mark.parametrize("text, want", [
    ("z1^(2)", "expected a nonnegative integer exponent (at position 3)"),
    ("z1^-2", "negative exponent (at position 3)"),
    ("z1 2", "implicit multiplication requires '*' (at position 3)"),
    ("2 (z1)", "implicit multiplication requires '*' (at position 2)"),
    ("1/2 z1", {(1, 0): Fraction(1, 2)}),
    ("2^3 z1", {(1, 0): 8}),
    ("(z1+1)*3 z2", {(1, 1): 3, (0, 1): 3}),
    ("(z1+1)*w", "unknown variable 'w' (at position 7)"),
    ("z1*(z2", "expected ')' (at position 6)"),
    ("9" * 2200 + "*(z1+1)*" + "9" * 2200,
     "coefficient of more than 4300 digits (at position 2207)"),
    ("-" + "9" * 4301, "numeric literal of 4301 digits is too long (at position 1)"),
    ("2*z1^", "expected a nonnegative integer exponent (at position 5)"),
])
def test_term_loop_crosses_from_monomial_to_products(text, want):
    # each text leaves the monomial part of its term at a factor of another
    # kind, or stops there with an error; results as before the one loop
    if isinstance(want, dict):
        assert parse_polynomial(text, ["z1", "z2"]).as_dict() == want
    else:
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, ["z1", "z2"])
        assert str(err.value) == want


_SOUP = (["z1", "z2", "z3", "w", "z22", "ß", "_"] + list("0123456789")
         + ["9" * 50, "9" * 4300] + list("+-*^/()") + [" "])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_SOUP), max_size=14).map("".join))
def test_parse_returns_a_polynomial_or_a_parse_error_in_the_text(text):
    try:
        p = parse_polynomial(text, ["z1", "z2", "z3"])
    except ParseError as err:
        assert 0 <= err.position <= len(text)
    else:
        assert isinstance(p, PolynomialInput)


def _render(tree, names):
    """Text for an expression tree of ``tests.oracle.expand_expression``."""
    kind = tree[0]
    if kind == "num":
        c = tree[1]
        return str(c.numerator) if c.denominator == 1 else f"({c})"
    if kind == "var":
        return names[tree[1]]
    if kind == "neg":
        return f"(-{_render(tree[1], names)})"
    if kind == "add":
        return "(" + " + ".join(_render(child, names) for child in tree[1]) + ")"
    if kind == "mul":
        return "*".join(_render(child, names) for child in tree[1])
    base = _render(tree[1], names)
    return f"({base})^{tree[2]}" if tree[1][0] == "mul" else f"{base}^{tree[2]}"


@st.composite
def expressions(draw):
    """Sums and differences of products whose factors are numbers,
    variables, powers of signed or rational single terms, and powers of
    sums, with the tree ``expand_expression`` reads."""
    n = draw(st.integers(1, 3))
    coefficients = st.builds(Fraction, st.integers(1, 9), st.sampled_from([1, 1, 2, 3, 7]))
    atoms = st.one_of(coefficients.map(lambda c: ("num", c)),
                      st.integers(0, n - 1).map(lambda i: ("var", i)))
    monomials = st.lists(atoms, min_size=1, max_size=4).map(lambda f: ("mul", f))
    signed = st.one_of(monomials, monomials.map(lambda m: ("neg", m)))
    term_powers = st.tuples(signed, st.integers(0, 40)).map(lambda t: ("pow", *t))
    sums = st.lists(signed, min_size=1, max_size=3).map(lambda t: ("add", t))
    sum_powers = st.tuples(sums, st.integers(0, 4)).map(lambda t: ("pow", *t))
    factors = st.one_of(atoms, term_powers, sum_powers, sums)
    products = st.lists(factors, min_size=1, max_size=3).map(lambda f: ("mul", f))
    terms = st.lists(st.one_of(products, products.map(lambda p: ("neg", p))),
                     min_size=1, max_size=3)
    return n, ("add", draw(terms))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(expressions())
def test_parse_matches_the_term_by_term_expansion(example):
    n, tree = example
    names = [f"z{i + 1}" for i in range(n)]
    want = expand_expression(tree, n)
    text = _render(tree, names)[1:-1]  # the outer sum needs no parentheses
    if not want:
        with pytest.raises(ParseError, match="zero polynomial"):
            parse_polynomial(text, names)
    else:
        assert parse_polynomial(text, names).as_dict() == want


@st.composite
def small_polynomials(draw):
    n = draw(st.integers(1, 3))
    nterms = draw(st.integers(1, 5))
    terms = {}
    for _ in range(nterms):
        exps = tuple(draw(st.integers(0, 4)) for _ in range(n))
        coeff = Fraction(
            draw(st.integers(-9, 9).filter(lambda c: c != 0)),
            draw(st.integers(1, 9)),
        )
        terms[exps] = coeff
    return PolynomialInput.from_dict(terms, n)


@settings(max_examples=60, deadline=None)
@given(small_polynomials())
def test_format_parse_round_trip(p):
    variables = [f"z{i+1}" for i in range(p.n)]
    text = format_polynomial(p, variables)
    again = parse_polynomial(text, variables)
    assert again.as_dict() == p.as_dict()


@settings(max_examples=60, deadline=None)
@given(small_polynomials())
def test_polynomial_is_its_terms(p):
    variables = [f"z{i+1}" for i in range(p.n)]
    assert parse_polynomial(format_polynomial(p, variables), variables) == p
    assert PolynomialInput.from_dict(p.as_dict(), p.n) == p


def test_newton_polytope_examples():
    p = parse_polynomial("z1 + z2 + z1^2*z2", ["z1", "z2"])
    assert {v.coords for v in newton_polytope(p).vertices} == {(1, 0), (0, 1), (2, 1)}

    mono = parse_polynomial("z1^3*z2", ["z1", "z2"])
    assert {v.coords for v in newton_polytope(mono).vertices} == {(3, 1)}

    simplex = parse_polynomial("1 + z1 + z2", ["z1", "z2"])
    assert {v.coords for v in newton_polytope(simplex).vertices} == {(0, 0), (1, 0), (0, 1)}


def test_newton_polytope_of_product_is_minkowski_sum():
    rng = random.Random(8)
    variables = ["z1", "z2"]

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = (rng.randint(0, 3), rng.randint(0, 3))
            terms[exps] = terms.get(exps, 0) + Fraction(rng.randint(1, 5))
        return PolynomialInput.from_dict(terms, 2)

    for _ in range(20):
        p, q = rand_poly(), rand_poly()
        product_terms: dict[tuple[int, ...], Fraction] = {}
        for ep, cp in p.terms:
            for eq, cq in q.terms:
                e = tuple(a + b for a, b in zip(ep, eq))
                product_terms[e] = product_terms.get(e, Fraction(0)) + cp * cq
        product = PolynomialInput.from_dict(product_terms, 2)
        assert newton_polytope(product) == minkowski_sum(
            newton_polytope(p), newton_polytope(q)
        )


def test_restrict_system_keeps_meeting_constraints():
    spec = SystemSpec(
        n=2,
        constraints=(parse_polynomial("z1 + z2*(1+z1^2)", ["z1", "z2"]),),
    )
    rs = restrict_system(spec, {1})
    assert rs.k_of_I == 1
    assert rs.indices == (0,)
    assert {v.coords for v in rs.polytopes[0].vertices} == {(0, 1)}


def test_restrict_system_drops_missing_constraints():
    spec = SystemSpec.from_supports(2, [[[1, 0]]])
    rs = restrict_system(spec, {1})
    assert rs.k_of_I == 0
    assert rs.indices == ()


def test_restrict_system_full_index_set_is_identity():
    spec = SystemSpec.from_supports(3, [[[1, 0, 0], [0, 1, 1]], [[0, 0, 1]]])
    rs = restrict_system(spec, {0, 1, 2})
    assert rs.k_of_I == 2
    for c, P in zip(spec.constraints, rs.polytopes):
        assert P == newton_polytope(c)


def test_restrict_system_ordering_is_increasing_subsequence():
    rng = random.Random(91)
    for _ in range(15):
        n = 3
        k = 2
        spec = SystemSpec.from_supports(
            n,
            [[[rng.randint(0, 2) for _ in range(n)]
              for _ in range(rng.randint(1, 3))] for _ in range(k)],
        )
        for idx in [{0}, {1}, {2}, {0, 2}, {0, 1, 2}]:
            rs = restrict_system(spec, idx)
            assert list(rs.indices) == sorted(rs.indices)
            survivors = [
                j for j in range(k)
                if not restrict_to_index_set(
                    newton_polytope(spec.constraints[j]), idx
                ).is_empty
            ]
            assert list(rs.indices) == survivors


def test_cone_system_single_variable():
    spec = SystemSpec(n=1, constraints=(), objective=parse_polynomial("z1", ["z1"]))
    lifted = cone_system(spec)
    assert lifted.n == 2
    assert len(lifted.constraints) == 1
    assert lifted.objective is None
    poly = newton_polytope(lifted.constraints[0])
    assert {v.coords for v in poly.vertices} == {(1, 0), (0, 1)}


def test_cone_system_over_a_point():
    spec = SystemSpec(
        n=2, constraints=(), objective=parse_polynomial("z1*z2", ["z1", "z2"])
    )
    lifted = cone_system(spec)
    poly = newton_polytope(lifted.constraints[0])
    assert {v.coords for v in poly.vertices} == {(1, 1, 0), (0, 0, 1)}


def test_cone_system_keeps_constraints_and_names():
    spec = SystemSpec(
        n=2,
        constraints=(parse_polynomial("z1 + z2*(1+z1^2)", ["z1", "z2"]),),
        objective=parse_polynomial("z2", ["z1", "z2"]),
    )
    lifted = cone_system(spec)
    assert lifted.n == 3
    assert len(lifted.constraints) == 2
    last = lifted.constraints[-1]
    assert last.as_dict() == {(0, 1, 0): 1, (0, 0, 1): -1}


def test_cone_system_requires_objective():
    spec = SystemSpec.from_supports(2, [[[1, 0]]])
    with pytest.raises(ValueError, match="objective"):
        cone_system(spec)


def test_fiber_polytopes_projections():
    spec = SystemSpec(
        n=2,
        constraints=(parse_polynomial("z1 + z2*(1+z1^2)", ["z1", "z2"]),),
    )
    fibers = fiber_polytopes(spec)
    assert len(fibers) == 1
    assert {v.coords for v in fibers[0].vertices} == {(0,), (2,)}

    mono = SystemSpec.from_supports(2, [[[1, 1]]])
    assert {v.coords for v in fiber_polytopes(mono)[0].vertices} == {(1,)}

    const = SystemSpec.from_supports(2, [[[0, 0]]])
    assert {v.coords for v in fiber_polytopes(const)[0].vertices} == {(0,)}


def test_system_spec_validates_constraint_count():
    with pytest.raises(ValueError, match="constraints"):
        SystemSpec.from_supports(2, [[[1, 0]], [[0, 1]]])


def test_raw_support_mode_matches_parsed_mode():
    parsed = SystemSpec(
        n=2, constraints=(parse_polynomial("z1 + z2 + z1^2*z2", ["z1", "z2"]),)
    )
    raw = SystemSpec.from_supports(2, [[[1, 0], [0, 1], [2, 1]]])
    assert newton_polytope(parsed.constraints[0]) == newton_polytope(raw.constraints[0])
