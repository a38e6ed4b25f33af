"""Value semantics of the package's immutable types.

Equal fields give equal, equally hashed values; assignment is refused;
the reprs, keyword construction, pickling and deep copies are pinned,
so a change of how the classes are declared cannot change them.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from newtonzeta import (
    ContributionTrace,
    Covector,
    IntPoint,
    LatticeFrame,
    LatticePolytope,
    PolynomialInput,
    RestrictedSystem,
    SystemSpec,
    ZetaProduct,
    hull,
    parse_polynomial,
    restrict_system,
)
from newtonzeta.polytope import FaceRecord


def _triangle():
    return hull([IntPoint((0, 0)), IntPoint((1, 0)), IntPoint((0, 1))])


def _poly():
    return PolynomialInput.from_dict({(1, 0): Fraction(1, 2), (0, 1): -3}, 2)


# (name, a fresh instance, a different instance, the repr of the first,
# its first field)
CASES = [
    ("IntPoint", lambda: IntPoint((1, 2)), lambda: IntPoint((2, 1)),
     "IntPoint(1, 2)", "coords"),
    ("Covector", lambda: Covector([1, -2]), lambda: Covector((1, 2)),
     "Covector(1, -2)", "comps"),
    ("LatticeFrame",
     lambda: LatticeFrame(IntPoint((0, 0, 1)), [IntPoint((1, 1, 0))], 3),
     lambda: LatticeFrame(IntPoint((0, 0, 0)), [IntPoint((1, 1, 0))], 3),
     "LatticeFrame(origin=IntPoint(0, 0, 1), basis=(IntPoint(1, 1, 0),), "
     "ambient_dim=3)", "origin"),
    ("LatticePolytope", _triangle, lambda: LatticePolytope.empty(2),
     "LatticePolytope([(0, 0), (0, 1), (1, 0)])", "vertices"),
    ("FaceRecord", lambda: FaceRecord(_triangle(), Covector((1, -2)), 0),
     lambda: FaceRecord(_triangle(), Covector((1, -2)), 1),
     "FaceRecord(face=LatticePolytope([(0, 0), (0, 1), (1, 0)]), "
     "normal=Covector(1, -2), min_value=0)", "face"),
    ("PolynomialInput", _poly,
     lambda: PolynomialInput.from_dict({(1, 0): 1}, 2),
     "PolynomialInput(terms=(((0, 1), Fraction(-3, 1)), "
     "((1, 0), Fraction(1, 2))), n=2)", "terms"),
    ("SystemSpec", lambda: SystemSpec(2, [_poly()]),
     lambda: SystemSpec(2, [_poly()], nondegeneracy_acknowledged=True),
     "SystemSpec(n=2, constraints=(PolynomialInput(terms=(((0, 1), "
     "Fraction(-3, 1)), ((1, 0), Fraction(1, 2))), n=2),), objective=None, "
     "nondegeneracy_acknowledged=False)", "n"),
    ("RestrictedSystem", lambda: restrict_system(SystemSpec(2, [_poly()]), [0]),
     lambda: restrict_system(SystemSpec(2, [_poly()]), [0, 1]),
     "RestrictedSystem(index_set=frozenset({0}), indices=(0,), "
     "polytopes=(LatticePolytope([(1, 0)]),), objective_restriction=None, n=2)",
     "index_set"),
    ("ZetaProduct", lambda: ZetaProduct(((2, -1), (1, 3))),
     lambda: ZetaProduct(((1, 3),)),
     "ZetaProduct(factors=((1, 3), (2, -1)))", "factors"),
    ("ContributionTrace",
     lambda: ContributionTrace(frozenset({0, 1}), Covector((1, -2)), 2, -1, (1, 0)),
     lambda: ContributionTrace(frozenset({0, 1}), None, 2, -1, (1, 0)),
     "ContributionTrace(index_set=frozenset({0, 1}), alpha=Covector(1, -2), "
     "m=2, exponent=-1, face_dims=(1, 0))", "index_set"),
]
IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("name, make, other, text, field", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(name, make, other, text, field):
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != other() and not a == other()
    assert a != text and a != None  # noqa: E711


@pytest.mark.parametrize("name, make, other, text, field", CASES, ids=IDS)
def test_reprs_are_pinned(name, make, other, text, field):
    assert repr(make()) == text


@pytest.mark.parametrize("name, make, other, text, field", CASES, ids=IDS)
def test_values_refuse_assignment(name, make, other, text, field):
    value = make()
    for attr in [field, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text


@pytest.mark.parametrize("name, make, other, text, field", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(name, make, other, text, field):
    value = make()
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                   copy.copy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == text


def test_points_and_covectors_never_compare_equal():
    for c in [(), (0,), (1, 2), (-3, 0, 5)]:
        p, a = IntPoint(c), Covector(c)
        assert p != a and a != p and not p == a
        assert len({p, a}) == 2
        # the hash of the field tuple, so sets of points iterate as before
        assert hash(p) == hash(a) == hash((c,))


def test_frame_equality_ignores_its_derived_fields():
    frame = LatticeFrame(IntPoint((0, 0, 1)), (IntPoint((1, 1, 0)),), 3)
    other = LatticeFrame(IntPoint((0, 0, 1)), (IntPoint((1, 1, 0)),), 3)
    assert (frame.normals, frame.coords, frame.index) == (
        ((-1, 1, 0), (0, 0, 1)), (0,), 1)
    object.__setattr__(other, "normals", ())
    object.__setattr__(other, "coords", (1,))
    object.__setattr__(other, "index", 7)
    assert frame == other and hash(frame) == hash(other)
    assert repr(frame) == repr(other)
    twin = copy.deepcopy(frame)
    assert (twin.normals, twin.coords, twin.index) == (
        frame.normals, frame.coords, frame.index)


def test_keyword_construction_with_defaults():
    spec = SystemSpec(n=2, constraints=[_poly()])
    assert spec.constraints == (_poly(),)
    assert spec.objective is None and spec.nondegeneracy_acknowledged is False
    assert spec == SystemSpec(2, (_poly(),), None, False)
    frame = LatticeFrame(origin=IntPoint((0, 0)), ambient_dim=2,
                         basis=[IntPoint((1, 0)), IntPoint((0, 1))])
    assert frame == LatticeFrame.standard(2) and frame.basis == (
        IntPoint((1, 0)), IntPoint((0, 1)))
    assert RestrictedSystem(
        index_set=[1], indices=(), polytopes=(), objective_restriction=None, n=2,
    ).index_set == frozenset({1})


def test_newton_polytopes_are_cached_and_kept_out_of_value_semantics():
    spec = SystemSpec(2, [_poly()])
    fresh = SystemSpec(2, [_poly()])
    polytopes = spec.newton_polytopes
    assert spec.newton_polytopes is polytopes
    assert polytopes == (LatticePolytope((IntPoint((0, 1)), IntPoint((1, 0))), 2),)
    assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
    copied = pickle.loads(pickle.dumps(spec))
    assert copied == spec and copied.newton_polytopes == polytopes


def _terms(*pairs):
    return tuple((exps, Fraction(c)) for exps, c in pairs)


# each constructor's input checks, with the message each raises
BAD_INPUTS = [
    (lambda: PolynomialInput((), 1), "polynomial must have at least one term"),
    (lambda: PolynomialInput(_terms(((1, 0), 1)), 1),
     "exponent vector length does not match n"),
    (lambda: PolynomialInput(_terms(((-1,), 1)), 1), "negative exponent"),
    (lambda: PolynomialInput(_terms(((1,), 0)), 1), "zero coefficient stored"),
    (lambda: PolynomialInput(_terms(((1,), 1), ((1,), 2)), 1),
     "duplicate exponent vector"),
    (lambda: SystemSpec(0, ()), "ambient dimension must be positive"),
    (lambda: SystemSpec(3, (_poly(),)), "constraint dimension does not match n"),
    (lambda: SystemSpec(3, (), _poly()), "objective dimension does not match n"),
    (lambda: parse_polynomial("x", ["x", "x"]), "duplicate variable names"),
    (lambda: LatticePolytope((IntPoint((0, 0)),), 3),
     "vertex dimension does not match ambient_dim"),
    (lambda: LatticePolytope((IntPoint((0,)), IntPoint((0,))), 1), "duplicate vertices"),
    (lambda: hull([]), "ambient_dim required for an empty hull"),
    (lambda: hull([IntPoint((0, 0))], 3), "ambient_dim does not match point dimension"),
    (lambda: ContributionTrace(frozenset({0}), None, 1, 0, ()),
     "traces record nonzero contributions only"),
    (lambda: ContributionTrace(frozenset({0}), None, 0, 1, ()),
     "trace power must be positive"),
    (lambda: LatticeFrame(IntPoint((0,)), (), 2), "frame origin has wrong dimension"),
    (lambda: LatticeFrame(IntPoint((0, 0)), (IntPoint((1,)),), 2),
     "frame basis vector has wrong dimension"),
]


@pytest.mark.parametrize("make, message", BAD_INPUTS,
                         ids=[message for _make, message in BAD_INPUTS])
def test_constructors_reject_bad_input(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()
