"""Input assembly: polynomials, their Newton polytopes, and systems.

Polynomials arrive either as text in a small arithmetic grammar or as
raw exponent supports with dummy coefficients.  The zeta pipeline only
ever consumes supports; coefficients are parsed, stored and printed so
inputs round-trip, and the non-degeneracy hypotheses under which the
results are valid stay an acknowledged input assumption rather than
something this code attempts to certify.

Grammar (whitespace insignificant)::

    expr   = ["+" / "-"] term *(("+" / "-") term)
    term   = factor *("*" factor / implicit)   ; implicit multiplication is
                                               ; allowed only as coefficient
                                               ; followed by a variable
    factor = base ["^" uint]
    base   = rational / varname / "(" expr ")"
    rational = uint ["/" uint]

``_Parser.parse_term`` reads each term in one loop.  Integer factors not
followed by "/" or "^" multiply into one coefficient, and known variables,
maybe with "^" uint, add into one exponent list, up to the first factor of
another kind; from it on, each product expands term by term.  A coefficient
past the digit bound is reported at its product's "*", or at the variable a
number runs into; a lone first factor is checked at 0, once all is read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .lattice import IntPoint, _Value
from .polytope import LatticePolytope, hull, restrict_to_index_set

__all__ = [
    "ParseError",
    "PolynomialInput",
    "SystemSpec",
    "RestrictedSystem",
    "parse_polynomial",
    "format_polynomial",
    "newton_polytope",
    "restrict_system",
    "cone_system",
    "fiber_polytopes",
]


class ParseError(ValueError):
    """Syntax or semantic error in polynomial text, with a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PolynomialInput(_Value):
    """A polynomial as a map from exponent vectors to nonzero coefficients."""

    __slots__ = _fields = ("terms", "n")

    def __init__(self, terms: tuple[tuple[tuple[int, ...], Fraction], ...], n: int):
        if not terms:
            raise ValueError("polynomial must have at least one term")
        seen = set()
        for exps, coeff in terms:
            if len(exps) != n:
                raise ValueError("exponent vector length does not match n")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            if coeff == 0:
                raise ValueError("zero coefficient stored")
            if exps in seen:
                raise ValueError("duplicate exponent vector")
            seen.add(exps)
        self._store(terms, n)

    @classmethod
    def from_dict(
        cls, terms: Mapping[tuple[int, ...], Fraction | int], n: int
    ) -> "PolynomialInput":
        items = tuple(
            sorted((tuple(e), Fraction(c)) for e, c in terms.items() if c != 0)
        )
        return cls(items, n)

    def as_dict(self) -> dict[tuple[int, ...], Fraction]:
        return {e: c for e, c in self.terms}

    def support(self) -> list[IntPoint]:
        return [IntPoint(e) for e, _ in self.terms]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_OPS = set("+-*^()/")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("NUM", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if c in _OPS:
            tokens.append(("OP", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("END", "", len(text)))
    return tokens


# polynomial values while parsing: {exponent tuple: coefficient}, an int
# unless a "/" made it a Fraction
_Terms = dict[tuple[int, ...], int | Fraction]

# a product forming more term pairs than this is rejected: it bounds the
# time and memory of each multiplication in an expansion
_MAX_TERM_PAIRS = 10**5

# Python's limit on the digits of an int converted to text: a longer
# numerator or denominator could be parsed but never printed
_MAX_COEFF_DIGITS = 4300
_COEFF_BOUND = 10**_MAX_COEFF_DIGITS
_TOO_MANY_DIGITS = f"coefficient of more than {_MAX_COEFF_DIGITS} digits"

# each level of parentheses takes four frames of the recursive descent,
# so this depth stays well inside Python's default recursion limit of 1000
_MAX_NESTING = 100


def _check_coefficients(terms: _Terms, at: int) -> None:
    if any(abs(c.numerator) >= _COEFF_BOUND or c.denominator >= _COEFF_BOUND
           for c in terms.values()):
        raise ParseError(_TOO_MANY_DIGITS, at)


def _int_literal(digits: str, at: int) -> int:
    """Value of a numeric literal; one too long for int() is a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"numeric literal of {len(digits)} digits is too long", at
        ) from None


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.zero = (0,) * len(variables)
        self.index = {v: i for i, v in enumerate(variables)}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, at = self.next()
        if kind != "OP" or val != op:
            raise ParseError(f"expected {op!r}", at)

    def parse(self) -> _Terms:
        value = self.parse_expr()
        kind, val, at = self.peek()
        if kind != "END":
            raise ParseError(f"unexpected {val!r}", at)
        return value

    def parse_expr(self) -> _Terms:
        kind, val, _ = self.peek()
        negate = False
        if kind == "OP" and val in "+-":
            self.next()
            negate = val == "-"
        value = self.parse_term()
        if negate:
            value = {e: -c for e, c in value.items()}
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val in "+-":
                self.next()
                rhs = self.parse_term()
                sign = 1 if val == "+" else -1
                for e, c in rhs.items():
                    value[e] = value.get(e, 0) + sign * c
                    if value[e] == 0:
                        del value[e]
            else:
                return value

    def parse_term(self) -> _Terms:
        """One product, its factors read by one loop (see the module docstring)."""
        tokens, index = self.tokens, self.index
        pos, at, value = self.pos, None, None  # no product yet, still a monomial
        coeff, exps = 1, list(self.zero)
        while True:
            kind, val, where = tokens[pos]
            if kind == "NUM" and value is None and tokens[pos + 1][1] not in ("/", "^"):
                coeff *= _int_literal(val, where)
                if coeff >= _COEFF_BOUND and at is not None:
                    raise ParseError(_TOO_MANY_DIGITS, at)
                pos += 1
                numeric = True
            elif kind == "NAME" and value is None and val in index and (
                    (op := tokens[pos + 1][1]) != "^" or tokens[pos + 2][0] == "NUM"):
                if op == "^":
                    exps[index[val]] += _int_literal(*tokens[pos + 2][1:])
                    pos += 3
                else:
                    exps[index[val]] += 1
                    pos += 1
                numeric = False
            else:
                self.pos = pos
                rhs, numeric = self.parse_factor()
                pos = self.pos
                if at is not None and value is None:
                    value = {tuple(exps): coeff} if coeff else {}
                value = rhs if at is None else self._mul(value, rhs, at)
            kind, val, at = tokens[pos]
            if val == "*":
                pos += 1
            elif not (kind == "NAME" and numeric):
                if kind in ("NAME", "NUM") or val == "(":
                    raise ParseError("implicit multiplication requires '*'", at)
                self.pos = pos
                if value is None:
                    return {tuple(exps): coeff} if coeff else {}
                return value

    def parse_factor(self) -> tuple[_Terms, bool]:
        value, numeric = self.parse_base()
        kind, val, _ = self.peek()
        if kind == "OP" and val == "^":
            self.next()
            kind, val, at = self.peek()
            if kind == "OP" and val == "-":
                raise ParseError("negative exponent", at)
            kind, val, at = self.next()
            if kind != "NUM":
                raise ParseError("expected a nonnegative integer exponent", at)
            value = self._pow(value, _int_literal(val, at), at)
        return value, numeric

    def parse_base(self) -> tuple[_Terms, bool]:
        kind, val, at = self.next()
        if kind == "NUM":
            num = _int_literal(val, at)
            kind2, val2, _ = self.peek()
            if kind2 == "OP" and val2 == "/":
                self.next()
                kind3, val3, at3 = self.next()
                if kind3 != "NUM":
                    raise ParseError("expected an integer denominator", at3)
                den = _int_literal(val3, at3)
                if den == 0:
                    raise ParseError("zero denominator", at3)
                num = Fraction(num, den)
            return ({self.zero: num} if num else {}), True
        if kind == "NAME":
            i = self.index.get(val)
            if i is None:
                raise ParseError(f"unknown variable {val!r}", at)
            return {self.zero[:i] + (1,) + self.zero[i + 1:]: 1}, False
        if kind == "OP" and val == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}", at)
            self.depth += 1
            value = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return value, False
        raise ParseError(f"unexpected {val or kind!r}", at)

    @staticmethod
    def _mul(a: _Terms, b: _Terms, at: int) -> _Terms:
        """a * b, its coefficients bounded."""
        if len(a) * len(b) > _MAX_TERM_PAIRS:
            raise ParseError(
                f"expansion too large: {len(a)} times {len(b)} terms", at
            )
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = out.get(e, 0) + ca * cb
                if c:
                    out[e] = c
                elif e in out:
                    del out[e]
        _check_coefficients(out, at)
        return out

    def _pow(self, a: _Terms, k: int, at: int) -> _Terms:
        """a^k by repeated squaring; the digit bound stops the first product
        past it."""
        result = {self.zero: 1}
        while k:
            if k & 1:
                result = self._mul(result, a, at)
            k >>= 1
            if k:
                a = self._mul(a, a, at)
        return result


def parse_polynomial(text: str, variables: Iterable[str]) -> PolynomialInput:
    """Parse, expand and collect a polynomial over the given variables."""
    variables = list(variables)
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    terms = _Parser(text, variables).parse()
    if not terms:
        raise ParseError("zero polynomial", 0)
    _check_coefficients(terms, 0)
    return PolynomialInput.from_dict(terms, len(variables))


def format_polynomial(p: PolynomialInput, variables: Iterable[str]) -> str:
    """Canonical text for a polynomial; reparses to the identical term map."""
    variables = list(variables)
    if len(variables) != p.n:
        raise ValueError("variable list length does not match polynomial")

    def monomial(exps: tuple[int, ...]) -> str:
        parts = []
        for name, e in zip(variables, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    pieces = []
    items = sorted(p.terms, key=lambda item: item[0], reverse=True)
    for i, (exps, coeff) in enumerate(items):
        mono = monomial(exps)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

class SystemSpec(_Value):
    """The input system: constraints, optional objective, assumptions.

    With no objective the system describes a one-parameter deformation in
    the last variable; with an objective it describes that polynomial
    restricted to the complete intersection cut out by the constraints.
    The Newton polytopes are built once, on first use, and belong to the
    spec; the engine reads their vertices once per stratum.
    """

    _fields = ("n", "constraints", "objective", "nondegeneracy_acknowledged")
    __slots__ = (*_fields, "__dict__")  # the dict holds newton_polytopes

    def __init__(self, n: int, constraints: Iterable[PolynomialInput],
                 objective: PolynomialInput | None = None,
                 nondegeneracy_acknowledged: bool = False):
        constraints = tuple(constraints)
        if n < 1:
            raise ValueError("ambient dimension must be positive")
        k = len(constraints)
        if not 0 <= k <= n - 1:
            raise ValueError(
                f"need 0 <= k <= n-1 constraints, got k={k} with n={n}"
            )
        for c in constraints:
            if c.n != n:
                raise ValueError("constraint dimension does not match n")
        if objective is not None and objective.n != n:
            raise ValueError("objective dimension does not match n")
        self._store(n, constraints, objective, nondegeneracy_acknowledged)

    @cached_property
    def newton_polytopes(self) -> tuple[LatticePolytope, ...]:
        """The constraints' Newton polytopes, then the objective's if any."""
        objective = () if self.objective is None else (self.objective,)
        return tuple(newton_polytope(p) for p in self.constraints + objective)

    @classmethod
    def from_supports(
        cls,
        n: int,
        constraint_supports: Sequence[Sequence[Sequence[int]]],
        objective_support: Sequence[Sequence[int]] | None = None,
        nondegeneracy_acknowledged: bool = False,
    ) -> "SystemSpec":
        """Raw-support entry: exponent vectors with dummy coefficients 1."""

        def poly(support: Sequence[Sequence[int]]) -> PolynomialInput:
            return PolynomialInput.from_dict(
                {tuple(e): Fraction(1) for e in support}, n
            )

        return cls(
            n=n,
            constraints=tuple(poly(s) for s in constraint_supports),
            objective=poly(objective_support) if objective_support is not None else None,
            nondegeneracy_acknowledged=nondegeneracy_acknowledged,
        )


class RestrictedSystem(_Value):
    """A system cut down to a coordinate subspace (0-based index set)."""

    __slots__ = _fields = ("index_set", "indices", "polytopes",
                           "objective_restriction", "n")

    def __init__(self, index_set: Iterable[int], indices: tuple[int, ...],
                 polytopes: tuple[LatticePolytope, ...],
                 objective_restriction: LatticePolytope | None, n: int):
        if list(indices) != sorted(indices):
            raise ValueError("surviving constraint indices must be increasing")
        for P in polytopes:
            if P.is_empty:
                raise ValueError("restricted constraint polytopes must be nonempty")
        self._store(frozenset(index_set), indices, polytopes, objective_restriction, n)

    @property
    def k_of_I(self) -> int:
        return len(self.polytopes)


def newton_polytope(p: PolynomialInput) -> LatticePolytope:
    """Convex hull of the exponent vectors of the nonzero terms."""
    return hull(p.support())


def restrict_system(spec: SystemSpec, index_set: Iterable[int]) -> RestrictedSystem:
    """Keep the constraints whose polytopes meet the coordinate subspace.

    Surviving constraints retain their original order; the objective is
    restricted too when present, and its restriction may be empty.
    """
    idx = frozenset(index_set)
    if not idx <= set(range(spec.n)):
        raise ValueError("index set out of range")
    polys = [restrict_to_index_set(P, idx) for P in spec.newton_polytopes]
    obj = polys.pop() if spec.objective is not None else None
    indices = [j for j, P in enumerate(polys) if not P.is_empty]
    return RestrictedSystem(
        index_set=idx,
        indices=tuple(indices),
        polytopes=tuple(polys[j] for j in indices),
        objective_restriction=obj,
        n=spec.n,
    )


def cone_system(spec: SystemSpec) -> SystemSpec:
    """Trade the objective for one extra constraint in one extra variable.

    The constraints are lifted unchanged and the objective F becomes the
    constraint F - z_new, whose Newton polytope is the height-1 cone over
    the objective's polytope; that identity is asserted structurally.
    """
    if spec.objective is None:
        raise ValueError("cone_system requires an objective")
    n1 = spec.n + 1

    def lift(p: PolynomialInput) -> PolynomialInput:
        return PolynomialInput.from_dict({e + (0,): c for e, c in p.terms}, n1)

    lifted = [lift(c) for c in spec.constraints]
    new_terms = {e + (0,): c for e, c in spec.objective.terms}
    apex = tuple(0 for _ in range(spec.n)) + (1,)
    new_terms[apex] = Fraction(-1)
    last = PolynomialInput.from_dict(new_terms, n1)
    cone = SystemSpec(
        n=n1,
        constraints=tuple(lifted) + (last,),
        objective=None,
        nondegeneracy_acknowledged=spec.nondegeneracy_acknowledged,
    )
    expected = hull(
        [IntPoint(e + (0,)) for e, _ in spec.objective.terms] + [IntPoint(apex)]
    )
    assert cone.newton_polytopes[-1] == expected, "cone polytope identity violated"
    return cone


def fiber_polytopes(spec: SystemSpec) -> list[LatticePolytope]:
    """Newton polytopes of a generic slice in the deformation parameter.

    Projects each constraint support along the last coordinate; valid for
    generic parameter values, where every projected monomial keeps a
    nonzero coefficient.
    """
    if spec.objective is not None:
        raise ValueError("fiber_polytopes applies to deformation mode only")
    out = []
    for c in spec.constraints:
        projected = [IntPoint(e[:-1]) for e, _ in c.terms]
        out.append(hull(projected))
    return out
