"""Command-line front end: JSON jobs in, JSON results out.

A job document names the system (polynomial text or raw supports), the
task, and options; results are deterministic JSON on stdout so they can
be diffed, archived, and used as test fixtures.  Exit codes: 0 success,
2 input error (schema, parse, or dimension problems), 3 internal
failure, reported with the exception's type and the file and line it
was raised at.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

from .engine import (
    ContributionTrace,
    ZetaProduct,
    euler_ci_torus,
    zeta_deformation,
    zeta_polynomial,
)
from .polytope import HullTooLarge, LatticePolytope, _canonical_pts, dim
from .lattice import LatticeFrame
from .systems import (
    ParseError,
    PolynomialInput,
    SystemSpec,
    _tokenize,
    format_polynomial,
    newton_polytope,
    parse_polynomial,
)
from .volumes import mixed_volume_of

TASKS = ("deform-origin", "deform-infinity", "polyzeta", "euler", "mixedvol", "info")
SCOPES = ("torus", "affine")

# the affine scope lists all 2^(n-1) strata up front, and their time
# doubles with each step in n: n = 16 takes about 1.4 s on an empty
# deformation, and the API's cone route reaches n = 6
_MAX_N = 16

# bound B on the exponents of a term: for n <= 16 (at most 16 bodies in
# [0, B]^16) a covector's entries are minors below 10^27 B^15, a factor
# power is below 10^29 B^16 and an exponent below 10^25 B^16, so the
# degree, a sum of their products, stays far below the 4300 digits that
# Python prints when B = 10^100
_MAX_EXPONENT = 10**100

# bound on the terms of one polynomial: with every term a Newton vertex
# (z1^i z2^(i^2)), 1,000 terms take 0.8 s for info and 1.2 s for
# deform-origin, 2,000 take 3.0 and 4.1 s, and 4,000 take 16 and 23 s
_MAX_TERMS = 2000


class InputError(Exception):
    """A problem with the job document or its polynomials."""


def _fail(path: str, message: str) -> "InputError":
    return InputError(f"{path}: {message}")


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise _fail(path, message)


def _load_polynomial(
    value: Any, path: str, variables: Sequence[str], order: Sequence[int]
) -> PolynomialInput:
    """A polynomial in the engine's ``variables``: text is parsed against
    them, and position j of a support vector is read from its ``order[j]``."""
    n = len(order)
    if isinstance(value, str):
        try:
            poly = parse_polynomial(value, variables)
        except ParseError as exc:
            raise _fail(path, str(exc)) from exc
        _expect(len(poly.terms) <= _MAX_TERMS, path,
                f"at most {_MAX_TERMS} terms are supported")
        _expect(all(c <= _MAX_EXPONENT for e, _ in poly.terms for c in e),
                path, "exponents must be at most 10^100")
        return poly
    support = value
    if isinstance(value, dict):
        _expect("support" in value, path, "expected a string or a support object")
        support = value["support"]
        path = f"{path}.support"
    _expect(isinstance(support, list) and support, path,
            "expected a nonempty list of exponent vectors")
    _expect(len(support) <= _MAX_TERMS, path,
            f"at most {_MAX_TERMS} terms are supported")
    exps = []
    for i, vec in enumerate(support):
        _expect(isinstance(vec, list) and len(vec) == n,
                f"{path}[{i}]", f"expected an exponent vector of length {n}")
        for c in vec:
            _expect(isinstance(c, int) and not isinstance(c, bool)
                    and 0 <= c <= _MAX_EXPONENT,
                    f"{path}[{i}]", "exponents must be integers from 0 to 10^100")
        exps.append(tuple(vec[j] for j in order))
    _expect(len(set(exps)) == len(exps), path, "duplicate exponent vectors")
    return PolynomialInput.from_dict({e: Fraction(1) for e in exps}, n)


def _is_name(text: str) -> bool:
    """Whether ``text`` is exactly one NAME token of the polynomial grammar."""
    try:
        tokens = _tokenize(text)
    except ParseError:
        return False
    return len(tokens) == 2 and tokens[0][:2] == ("NAME", text)


class Job:
    """A validated job document."""

    def __init__(self, data: Any, task: str, overrides: argparse.Namespace):
        _expect(isinstance(data, dict), "$", "job document must be a JSON object")
        _expect(task in TASKS, "task", f"unknown task {task!r}")
        doc_task = data.get("task")
        if doc_task is not None and doc_task != task:
            raise _fail("task", f"document says {doc_task!r}, command says {task!r}")
        self.task = task

        n = data.get("n")
        _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
                "n", "a positive integer is required")
        _expect(n <= _MAX_N, "n", f"at most {_MAX_N} variables are supported")
        self.n = n

        variables = data.get("variables")
        if variables is None:
            variables = [f"z{i+1}" for i in range(n)]
        _expect(
            isinstance(variables, list)
            and len(variables) == n
            and all(isinstance(v, str) for v in variables)
            and len(set(variables)) == n,
            "variables", f"expected {n} distinct variable names",
        )
        _expect(all(map(_is_name, variables)), "variables",
                "a variable name is a letter or underscore, then letters, "
                "digits or underscores")

        options = data.get("options", {})
        _expect(isinstance(options, dict), "options", "expected an object")
        trace = options.get("trace", False)
        assume = options.get("assume_nondegenerate", False)
        _expect(isinstance(trace, bool), "options.trace", "expected true or false")
        _expect(isinstance(assume, bool), "options.assume_nondegenerate",
                "expected true or false")
        self.trace = trace or overrides.trace
        self.assume = assume

        scope = overrides.scope or data.get("scope", "affine")
        _expect(scope in SCOPES, "scope", f"expected one of {SCOPES}")
        self.scope = scope

        # the engine deforms in its last variable: move deform_var there
        order = list(range(n))
        deform_var = overrides.deform_var or options.get("deform_var")
        if deform_var is not None:
            _expect(isinstance(deform_var, str), "options.deform_var",
                    "expected a variable name")
            _expect(deform_var in variables, "options.deform_var",
                    f"unknown variable {deform_var!r}")
            order.append(order.pop(variables.index(deform_var)))
        self.variables = [variables[i] for i in order]

        raw_constraints = data.get("constraints", [])
        _expect(isinstance(raw_constraints, list), "constraints", "expected a list")
        self.constraints = [
            _load_polynomial(c, f"constraints[{i}]", self.variables, order)
            for i, c in enumerate(raw_constraints)
        ]
        raw_objective = data.get("objective")
        self.objective = (
            _load_polynomial(raw_objective, "objective", self.variables, order)
            if raw_objective is not None
            else None
        )

        if task == "polyzeta":
            _expect(self.objective is not None, "objective",
                    "polyzeta requires an objective")
        elif task in ("deform-origin", "deform-infinity", "euler", "mixedvol"):
            _expect(self.objective is None, "objective",
                    f"{task} takes constraints only")

    def system(self) -> SystemSpec:
        try:
            return SystemSpec(
                n=self.n,
                constraints=tuple(self.constraints),
                objective=self.objective,
                nondegeneracy_acknowledged=self.assume,
            )
        except ValueError as exc:
            raise _fail("constraints", str(exc)) from exc


def _hull_path(job: Job, points: tuple[tuple[int, ...], ...]) -> str:
    """The path of the first polynomial, in the order the hulls are built,
    whose support's ``_canonical_pts`` are ``points``, or of the
    constraints when they are not one polynomial's (a sum's)."""
    named = [(f"constraints[{i}]", p) for i, p in enumerate(job.constraints)]
    if job.objective is not None:
        named.append(("objective", job.objective))
    return next((path for path, p in named
                 if _canonical_pts(e for e, _ in p.terms) == points), "constraints")


def _serialize_trace(trace: ContributionTrace, variables: Sequence[str]) -> dict:
    return {
        "stratum": [variables[i] for i in sorted(trace.index_set)],
        "alpha": list(trace.alpha.comps) if trace.alpha is not None else None,
        "m": trace.m,
        "exponent": trace.exponent,
        "face_dims": list(trace.face_dims),
    }


def _zeta_result(
    job: Job,
    product: ZetaProduct,
    traces: list[ContributionTrace],
    assumptions: list[str],
) -> dict:
    result = {
        "task": job.task,
        "scope": job.scope,
        "factors": [{"m": m, "exponent": e} for m, e in product.factors],
        "pretty": product.pretty(),
        "degree": product.degree(),
        "assumptions": assumptions,
    }
    if not job.assume:
        result["assumptions_unacknowledged"] = True
    if job.trace:
        result["traces"] = [_serialize_trace(t, job.variables) for t in traces]
    return result


_CONSTANTS = {True: "true", False: "false", None: "null"}


def _write_json(value: Any, newline: str, out: list[str]) -> None:
    """Append the text of ``json.dumps(value, indent=2)`` to ``out``, each
    line of the value opened by ``newline`` (a "\\n" and its indent).

    ``json`` runs its pure-Python encoder whenever an indent is given;
    this writer reuses its C string encoder and gives the same bytes for
    the values a result holds: dicts with str keys, lists, str, int,
    bool and None.  Any other value raises ``TypeError``.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append(_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def _dumps(value: Any) -> str:
    """``json.dumps(value, indent=2)`` for a result document."""
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def run(job: Job) -> dict:
    """Dispatch a validated job and build its result document."""
    if job.task in ("deform-origin", "deform-infinity"):
        spec = job.system()
        mode = "origin" if job.task == "deform-origin" else "infinity"
        product, traces = zeta_deformation(spec, mode=mode, scope=job.scope)
        hypothesis = (
            "sigma-non-degenerate" if mode == "origin"
            else "sigma-non-degenerate at infinity"
        )
        return _zeta_result(job, product, traces, [hypothesis])

    if job.task == "polyzeta":
        spec = job.system()
        product, traces = zeta_polynomial(spec, scope=job.scope)
        return _zeta_result(job, product, traces, [
            "non-degenerate (objective with constraints)",
            "non-degenerate (constraints)",
        ])

    polys = [newton_polytope(p) for p in job.constraints]

    if job.task == "euler":
        if len(polys) > job.n:
            raise _fail("constraints", "euler needs at most n constraints")
        value = euler_ci_torus(polys, job.n)
        result = {
            "task": "euler",
            "value": value,
            "assumptions": ["non-degenerate (constraints)"],
        }
        if not job.assume:
            result["assumptions_unacknowledged"] = True
        return result

    if job.task == "mixedvol":
        if len(polys) != job.n:
            raise _fail("constraints",
                        f"mixedvol needs exactly n = {job.n} constraints")
        value = mixed_volume_of(polys, LatticeFrame.standard(job.n))
        return {"task": "mixedvol", "value": value, "assumptions": []}

    if job.task == "info":
        def describe(p: PolynomialInput, P: LatticePolytope) -> dict:
            return {
                "text": format_polynomial(p, job.variables),
                "terms": len(p.terms),
                "newton_vertices": [list(v.coords) for v in P.vertices],
                "dim": dim(P),
            }

        result = {
            "task": "info",
            "n": job.n,
            "variables": job.variables,
            "mode": "polynomial" if job.objective is not None else "deformation",
            "constraints": [describe(p, P) for p, P in zip(job.constraints, polys)],
        }
        if job.objective is not None:
            result["objective"] = describe(job.objective, newton_polytope(job.objective))
        return result

    raise AssertionError(f"unhandled task {job.task!r}")


_PARSER = argparse.ArgumentParser(
    prog="newton-zeta",
    description="Monodromy zeta-functions from Newton polytopes, exactly.",
)
_PARSER.add_argument("task", choices=TASKS)
_PARSER.add_argument("input", help="job document (JSON file, or - for stdin)")
_PARSER.add_argument("--scope", choices=SCOPES, default=None,
                     help="torus part only, or the full affine stratification")
_PARSER.add_argument("--trace", action="store_true",
                     help="include per-factor contribution traces")
_PARSER.add_argument("--deform-var", default=None, metavar="NAME",
                     help="permute this variable into the last position")
_PARSER.add_argument("--pretty", action="store_true",
                     help="echo the human-readable product on stderr")


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.input == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RecursionError) as exc:  # bad syntax, encoding or depth
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2

    try:
        job = Job(data, args.task, args)
        result = run(job)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HullTooLarge as exc:
        print(f"error: {_hull_path(job, exc.points)}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - contract: 3 on internal failure
        tb = exc.__traceback__
        while tb.tb_next is not None:  # the innermost frame raised it
            tb = tb.tb_next
        print(f"internal error: {type(exc).__name__} at "
              f"{tb.tb_frame.f_code.co_filename}:{tb.tb_lineno}: {exc}",
              file=sys.stderr)
        return 3

    sys.stdout.write(_dumps(result) + "\n")
    if args.pretty and "pretty" in result:
        print(result["pretty"], file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
