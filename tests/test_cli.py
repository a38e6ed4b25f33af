"""The command-line front end: dispatch, documents, determinism, exit codes."""

import json
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from newtonzeta import polytope
from newtonzeta.cli import _MAX_TERMS, _PARSER, TASKS, Job, _dumps, _hull_path, main, run
from newtonzeta.polytope import _canonical_pts


def run_cli(capsys, argv, stdin_data=None, monkeypatch=None):
    if stdin_data is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", _StringIO(stdin_data))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


from io import StringIO as _StringIO


def write_job(tmp_path, data, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


PAPER_JOB = {
    "n": 2,
    "variables": ["z1", "z2"],
    "constraints": ["z1 + z2*(1+z1^2)"],
    "options": {"assume_nondegenerate": True},
}


def test_deform_origin_headline(tmp_path, capsys):
    path = write_job(tmp_path, PAPER_JOB)
    code, out, err = run_cli(capsys, ["deform-origin", path, "--scope", "affine"])
    assert code == 0
    doc = json.loads(out)
    assert doc["factors"] == [{"m": 1, "exponent": 2}]
    assert doc["pretty"] == "(1-t)^2"
    assert doc["degree"] == 2
    assert doc["assumptions"] == ["sigma-non-degenerate"]
    assert "assumptions_unacknowledged" not in doc


def test_polyzeta_power_map(tmp_path, capsys):
    job = {"n": 1, "objective": "z1^3"}
    path = write_job(tmp_path, job)
    code, out, err = run_cli(capsys, ["polyzeta", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["factors"] == [{"m": 3, "exponent": 1}]
    assert doc["assumptions_unacknowledged"] is True


def test_euler_task(tmp_path, capsys):
    job = {"n": 2, "constraints": [{"support": [[0, 0], [1, 0], [0, 1]]}]}
    path = write_job(tmp_path, job)
    code, out, err = run_cli(capsys, ["euler", path])
    assert code == 0
    assert json.loads(out)["value"] == -1


def test_euler_arity_is_input_error(tmp_path, capsys):
    job = {"n": 2, "constraints": [{"support": [[0, 0], [1, 0]]}] * 3}
    path = write_job(tmp_path, job)
    code, out, err = run_cli(capsys, ["euler", path])
    assert code == 2 and not out
    assert err == "error: constraints: euler needs at most n constraints\n"


def test_mixedvol_task(tmp_path, capsys):
    job = {"n": 2, "constraints": ["z1 + z2", "z1*z2 + 1"]}
    path = write_job(tmp_path, job)
    code, out, err = run_cli(capsys, ["mixedvol", path])
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_mixedvol_arity_is_input_error(tmp_path, capsys):
    job = {"n": 2, "constraints": ["z1 + z2"]}
    path = write_job(tmp_path, job)
    code, out, err = run_cli(capsys, ["mixedvol", path])
    assert code == 2
    assert "constraints" in err


def test_info_task(tmp_path, capsys):
    job = {"n": 2, "constraints": ["z1 + z2*(1+z1^2)"], "objective": "z2"}
    path = write_job(tmp_path, job)
    code, out, err = run_cli(capsys, ["info", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "polynomial"
    assert doc["constraints"][0]["dim"] == 2
    assert sorted(map(tuple, doc["constraints"][0]["newton_vertices"])) == [
        (0, 1), (1, 0), (2, 1),
    ]


def test_parse_error_exit_code(tmp_path, capsys):
    for text in ("z1 +", "(" * 400 + "z1" + ")" * 400):
        path = write_job(tmp_path, {"n": 1, "constraints": [text]})
        code, out, err = run_cli(capsys, ["deform-origin", path])
        assert code == 2, text[:10]
        assert "position" in err


def test_cancelling_product_is_a_zero_polynomial(tmp_path, capsys):
    path = write_job(tmp_path, {"n": 1, "constraints": ["(z1+1)*(z1-1) - z1^2 + 1"]})
    code, out, err = run_cli(capsys, ["deform-origin", path])
    assert code == 2
    assert "constraints[0]: zero polynomial (at position 0)" in err


def test_non_decimal_digit_is_parse_error(tmp_path, capsys):
    path = write_job(tmp_path, {"n": 1, "constraints": ["2²*z1 + 1"]})
    code, out, err = run_cli(capsys, ["deform-origin", path])
    assert code == 2
    assert "unexpected character '²' (at position 1)" in err


def test_oversized_literals_are_input_errors(tmp_path, capsys):
    # past Python's int() digit limit: a parse error, not an internal one
    digits = "7" * 5000
    for text in (f"{digits}*z1 + 1", f"z1^{digits} + 1"):
        path = write_job(tmp_path, {"n": 1, "constraints": [text]})
        code, out, err = run_cli(capsys, ["deform-origin", path])
        assert code == 2
        assert "too long" in err


def test_oversized_expanded_coefficients_are_input_errors(tmp_path, capsys):
    # short literals whose expansion passes the 4300-digit limit: a power,
    # a denominator, and a sum of two admissible literals
    nines = "9" * 4300
    for text in ("2^20000*z1 + z2", "z1 + 1/2^20000",
                 f"{nines}*z1 + {nines}*z1 + z2"):
        path = write_job(tmp_path, {"n": 2, "constraints": [text]})
        for task in ("info", "deform-origin"):
            code, out, err = run_cli(capsys, [task, path])
            assert code == 2
            assert "coefficient of more than 4300 digits" in err


def test_oversized_exponents_are_input_errors(tmp_path, capsys):
    # (z1^E)^E has an exponent of 4400 digits: a factor power or a Newton
    # vertex that could be computed but not printed
    e = "7" * 2200
    docs = [
        ({"n": 2, "constraints": [f"z1 + (z1^{e})^{e}*z2"]}, "constraints[0]"),
        ({"n": 2, "constraints": [[[1, 0], [10**100 + 1, 1]]]}, "constraints[0][1]"),
    ]
    for doc, where in docs:
        path = write_job(tmp_path, doc)
        for task in ("deform-origin", "info"):
            code, out, err = run_cli(capsys, [task, path])
            assert code == 2
            assert f"{where}: exponents must be" in err
    path = write_job(tmp_path, {"n": 2, "constraints": [[[1, 0], [10**100, 1]]]})
    assert run_cli(capsys, ["deform-origin", path])[0] == 0


def test_oversized_expansion_is_input_error(tmp_path, capsys):
    # C(100002, 2) terms: rejected at the first product past the bound
    path = write_job(tmp_path, {"n": 3, "constraints": ["(z1+z2+z3)^100000"]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["info", path])
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "expansion too large" in err


def test_oversized_term_counts_are_input_errors(tmp_path, capsys):
    # one term past the bound, as text, as a support list and as a support
    # object, is rejected before any hull; a polynomial at the bound runs
    over = [[i] for i in range(_MAX_TERMS + 1)]
    text = " + ".join(f"z1^{i}" for i in range(_MAX_TERMS + 1))
    docs = [
        ({"n": 1, "constraints": [text]}, "info", "constraints[0]"),
        ({"n": 1, "constraints": [over]}, "deform-origin", "constraints[0]"),
        ({"n": 1, "objective": {"support": over}}, "polyzeta", "objective.support"),
    ]
    for doc, task, where in docs:
        path = write_job(tmp_path, doc)
        code, out, err = run_cli(capsys, [task, path])
        assert code == 2, (task, where)
        assert f"{where}: at most {_MAX_TERMS} terms are supported" in err
    for constraint in (over[:-1], text.rpartition(" + ")[0]):
        path = write_job(tmp_path, {"n": 1, "constraints": [constraint]})
        code, out, err = run_cli(capsys, ["info", path])
        assert code == 0
        assert json.loads(out)["constraints"][0]["terms"] == _MAX_TERMS


def test_high_dimensional_hulls_are_input_errors(tmp_path, capsys):
    # 60 random points of [0,9]^8: the hull's facets grow like N^(n/2),
    # and its double description passes polytope._MAX_RAYS within seconds
    # instead of running for minutes; the path names the polynomial, and
    # the memo keeps no entry for it
    rng = random.Random(1)
    support = []
    while len(support) < 60:
        point = [rng.randint(0, 9) for _ in range(8)]
        if point not in support:
            support.append(point)
    small = [[int(i == j) for j in range(8)] for i in range(9)]  # a simplex
    path = write_job(tmp_path, {"n": 8, "constraints": [small, {"support": support}]})
    cached = polytope._dd.cache_info().currsize
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["info", path])
    assert time.perf_counter() - start < 30
    assert code == 2 and not out
    assert err.startswith("error: constraints[1]: the convex hull of 60 points "
                          "in dimension 8 needs more than 4096 rays")
    assert polytope._dd.cache_info().currsize == cached + 1  # the simplex alone


def test_lower_dimensional_hulls_name_their_polynomial(tmp_path, capsys):
    # the same support padded by a zero coordinate: its sweep runs modulo
    # the kernel of its reduction, and the error still names the polynomial
    # and its own dimension, with no memo entry for the set
    rng = random.Random(1)
    support = []
    while len(support) < 60:
        point = [rng.randint(0, 9) for _ in range(8)] + [0]
        if point not in support:
            support.append(point)
    small = [[int(i == j) for j in range(9)] for i in range(10)]  # a simplex
    path = write_job(tmp_path, {"n": 9, "constraints": [small, {"support": support}]})
    cached = polytope._dd.cache_info().currsize
    code, out, err = run_cli(capsys, ["info", path])
    assert code == 2 and not out
    assert err.startswith("error: constraints[1]: the convex hull of 60 points "
                          "in dimension 9 needs more than 4096 rays")
    assert polytope._dd.cache_info().currsize == cached + 1


def test_schema_error_has_field_path(tmp_path, capsys):
    cases = [
        ({"n": 2, "constraints": [{"support": [[0]]}]}, "deform-origin", "constraints[0]"),
        ({"n": True, "constraints": []}, "info", "n:"),
        ({"n": True, "constraints": []}, "polyzeta", "n:"),
        ({**PAPER_JOB, "options": {"assume_nondegenerate": "false"}},
         "deform-origin", "options.assume_nondegenerate:"),
        ({**PAPER_JOB, "options": {"assume_nondegenerate": True, "trace": "no"}},
         "deform-origin", "options.trace:"),
        ({"n": 17, "constraints": []}, "deform-origin", "n:"),
    ]
    for job, task, field in cases:
        path = write_job(tmp_path, job)
        code, out, err = run_cli(capsys, [task, path])
        assert code == 2, (job, task)
        assert field in err, (job, task)


def test_variable_names_must_reparse(tmp_path, capsys):
    # each name is one name token of the polynomial grammar, so the
    # printed polynomials parse back
    for names in (["a+b", "c"], ["x", " y"], ["", "c"], ["1a", "c"], ["x.y", "c"]):
        job = {"n": 2, "variables": names, "constraints": [[[1, 0], [0, 2]]]}
        code, out, err = run_cli(capsys, ["info", write_job(tmp_path, job)])
        assert code == 2, names
        assert "variables:" in err and out == "", names
    job = {"n": 2, "variables": ["_a1", "b"], "constraints": [[[1, 0], [0, 2]]]}
    code, out, err = run_cli(capsys, ["info", write_job(tmp_path, job)])
    assert code == 0
    assert json.loads(out)["constraints"][0]["text"] == "_a1 + b^2"


def test_malformed_documents_are_input_errors(tmp_path, capsys):
    # nesting past the JSON decoder's recursion, bytes that are not UTF-8,
    # and an integer past Python's 4300-digit int() limit
    path = tmp_path / "job.json"
    deep = b"[" * 10**5 + b"]" * 10**5
    huge = b'{"n": 1' + b"0" * 5000 + b"}"
    for raw in (deep, b'{"n": 1, "constraints": ["\xff\xfe"]}', huge):
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, ["info", str(path)])
        assert code == 2, raw[:10]
        assert "error: invalid JSON" in err
        assert out == ""


def test_task_conflict_is_input_error(tmp_path, capsys):
    path = write_job(tmp_path, {**PAPER_JOB, "task": "polyzeta"})
    code, out, err = run_cli(capsys, ["deform-origin", path])
    assert code == 2


def test_missing_file_is_input_error(capsys):
    code, out, err = run_cli(capsys, ["deform-origin", "/nonexistent/job.json"])
    assert code == 2


def test_objective_rejected_for_scalar_tasks(tmp_path, capsys):
    job = {"n": 2, "constraints": ["z1 + z2"], "objective": "z1"}
    path = write_job(tmp_path, job)
    for task in ("euler", "mixedvol", "deform-origin"):
        code, out, err = run_cli(capsys, [task, path])
        assert code == 2, task


def test_internal_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = write_job(tmp_path, PAPER_JOB)
    import newtonzeta.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "zeta_deformation", boom)
    code, out, err = run_cli(capsys, ["deform-origin", path])
    assert code == 3
    assert "internal error" in err


def test_internal_error_names_type_and_innermost_line(tmp_path, capsys, monkeypatch):
    path = write_job(tmp_path, PAPER_JOB)
    import newtonzeta.cli as cli_mod

    def boom(job):
        raise KeyError("synthetic failure")

    monkeypatch.setattr(cli_mod, "run", boom)
    code, out, err = run_cli(capsys, ["deform-origin", path])
    assert code == 3 and out == ""
    where = f"{boom.__code__.co_filename}:{boom.__code__.co_firstlineno + 1}"
    assert err == f"internal error: KeyError at {where}: 'synthetic failure'\n"


def test_trace_factors_multiply_to_headline(tmp_path, capsys):
    path = write_job(tmp_path, PAPER_JOB)
    code, out, err = run_cli(capsys, ["deform-origin", path, "--trace"])
    assert code == 0
    doc = json.loads(out)
    rebuilt: dict[int, int] = {}
    for t in doc["traces"]:
        rebuilt[t["m"]] = rebuilt.get(t["m"], 0) + t["exponent"]
    headline = {f["m"]: f["exponent"] for f in doc["factors"]}
    assert {m: e for m, e in rebuilt.items() if e} == headline


def test_output_is_deterministic_across_jobs(tmp_path, capsys):
    job = {
        "n": 3,
        "constraints": ["z1 + z2 + z3 + z1*z2*z3"],
        "options": {"assume_nondegenerate": True},
    }
    path = write_job(tmp_path, job)
    outputs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, ["deform-origin", path, "--trace"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_deform_var_permutes_parameter(tmp_path, capsys):
    # deformation in z1: permute it to the last position first
    job = {
        "n": 2,
        "variables": ["s", "x"],
        "constraints": ["x + s*(1+x^2)"],
        "options": {"assume_nondegenerate": True},
    }
    path = write_job(tmp_path, job)
    code, out, err = run_cli(capsys, ["deform-origin", path, "--deform-var", "s"])
    assert code == 0
    assert json.loads(out)["factors"] == [{"m": 1, "exponent": 2}]


def test_deform_var_orders_text_and_supports_alike(tmp_path, capsys):
    # s moved last reads as the document written in the order x, y, s:
    # text by name, a support vector by position, the objective included
    job = {"n": 3, "variables": ["s", "x", "y"],
           "constraints": ["x^2 + s*y + y^3 + s^2*x"],
           "objective": "x*y + s^3 + y^2*s + x^4",
           "options": {"assume_nondegenerate": True}}
    supports = dict(job, constraints=[{"support": [[0, 2, 0], [1, 0, 1], [0, 0, 3],
                                                   [2, 1, 0]]}])
    permuted = dict(job, variables=["x", "y", "s"])
    for task in ("polyzeta", "info"):
        outputs = []
        for doc, flags in ((job, ["--deform-var", "s"]), (supports, ["--deform-var", "s"]),
                           (permuted, [])):
            code, out, err = run_cli(capsys, [task, write_job(tmp_path, doc), "--trace", *flags])
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["factors" if task == "polyzeta" else "variables"]


def test_unknown_deform_var_is_read_before_the_polynomials(tmp_path, capsys):
    for constraints in (["z1 + z2"], ["z1 +"]):
        path = write_job(tmp_path, {"n": 2, "constraints": constraints})
        code, out, err = run_cli(capsys, ["deform-origin", path, "--deform-var", "w"])
        assert code == 2 and not out
        assert err == "error: options.deform_var: unknown variable 'w'\n"


def test_hull_path_names_the_polynomial_of_canonical_points():
    # the first polynomial whose support has those canonical points, in the
    # order the hulls are built, or the constraints for a sum's points
    doc = {"n": 2, "constraints": ["z1 + z2", "z1^2*z2 + z1*z2^2 + 1"],
           "objective": "z1^3*z2 + z1^2 + z1*z2^3"}
    job = Job(doc, "info", _PARSER.parse_args(["info", "-"]))
    support = [[e for e, _ in p.terms] for p in job.constraints + [job.objective]]
    assert _hull_path(job, _canonical_pts(support[2])) == "objective"
    assert _hull_path(job, _canonical_pts(support[1])) == "constraints[1]"
    assert _hull_path(job, _canonical_pts(support[0])) == "constraints[0]"
    sums = [tuple(map(sum, zip(p, q))) for p in support[0] for q in support[1]]
    assert _hull_path(job, _canonical_pts(sums)) == "constraints"


def test_pretty_goes_to_stderr(tmp_path, capsys):
    path = write_job(tmp_path, PAPER_JOB)
    code, out, err = run_cli(capsys, ["deform-origin", path, "--pretty"])
    assert code == 0
    assert "(1-t)^2" in err


def test_console_script_runs():
    result = subprocess.run(
        [sys.executable, "-m", "newtonzeta.cli", "deform-origin", "-"],
        input=json.dumps(PAPER_JOB),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["pretty"] == "(1-t)^2"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
_NAME = st.sampled_from(["z1", "z2", "z3", "x", ""])
_ODD_SUPPORT = st.lists(st.lists(st.integers(-1, 2), max_size=4), max_size=3)
_ODD_POLY = (st.text(alphabet="z123x+-*^()/ 0", max_size=12) | _ODD_SUPPORT
             | st.fixed_dictionaries({"support": _ODD_SUPPORT}) | _JSON)
# what a field of a job document is replaced by when it is spoiled
_ODD = {
    "n": st.sampled_from([-1, 0, "3", 2.0, True]) | _JSON,
    "variables": st.lists(_NAME, max_size=4) | _JSON,
    "constraints": st.lists(_ODD_POLY, max_size=3) | _JSON,
    "objective": _ODD_POLY,
    "scope": st.text(max_size=6) | _JSON,
    "options": st.dictionaries(
        st.sampled_from(["trace", "assume_nondegenerate", "deform_var"]),
        _NAME | _JSON, max_size=3) | _JSON,
    "task": st.sampled_from(TASKS) | _JSON,
}


@st.composite
def _job_documents(draw):
    """A well-formed job document for n = 1..4 with a few fields spoiled."""
    n = draw(st.integers(1, 4))
    names = [f"z{i + 1}" for i in range(n)]
    monomial = st.lists(st.sampled_from(names + ["1", "2"]),
                        min_size=1, max_size=3).map("*".join)
    support = st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                       min_size=1, max_size=3, unique_by=tuple)
    poly = (st.lists(monomial, min_size=1, max_size=3).map(" + ".join)
            | support | st.fixed_dictionaries({"support": support}))
    doc = draw(st.fixed_dictionaries({"n": st.just(n)}, optional={
        "variables": st.just(names),
        "constraints": st.lists(poly, max_size=3),
        "objective": poly,
        "scope": st.sampled_from(["torus", "affine"]),
        "options": st.fixed_dictionaries({}, optional={
            "trace": st.booleans(),
            "assume_nondegenerate": st.booleans(),
            "deform_var": st.sampled_from(names),
        }),
    }))
    for field in draw(st.lists(st.sampled_from(sorted(_ODD)), max_size=1)):
        doc[field] = draw(_ODD[field])
    return doc


_FLAGS = (st.just(())
          | st.tuples(st.just("--scope"), st.sampled_from(["torus", "affine"]))
          | st.tuples(st.just("--deform-var"), _NAME))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_job_documents() | _JSON, st.sampled_from(TASKS), _FLAGS)
def test_fuzzed_documents_exit_zero_or_two(doc, task, flags):
    text = json.dumps(doc)
    with mock.patch("sys.stdin", _StringIO(text)), \
            redirect_stdout(_StringIO()), redirect_stderr(_StringIO()) as err:
        code = main([task, "-", *flags])
    assert code in (0, 2), f"exit {code} on {task} {flags} {text}: {err.getvalue()}"


_JSON_STRINGS = st.text() | st.sampled_from(
    ["", "α β_1", "\U0001F600\U00010348", "\x00\x1f\x7f\n\t", '"\\/', "\u2028\ud800"])
_JSON_SCALARS = (st.none() | st.booleans() | _JSON_STRINGS | st.integers()
                 | st.integers(-10**100, 10**100)
                 | st.sampled_from([10**99, -10**99, 10**100 - 1, 1 - 10**100]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_JSON_STRINGS, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_JSON_VALUES)
def test_result_writer_matches_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_result_writer_edge_cases():
    for value in ([], {}, [[]], [{}], {"a": []}, {"a": {"b": {}}, "c": [[], [[]]]},
                  {"k": True, "l": False, "m": None}, -0, True):
        assert _dumps(value) == json.dumps(value, indent=2)
    for value in (Fraction(1, 2), {1, 2}, [object()]):  # as json.dumps does
        for dumps in (_dumps, lambda v: json.dumps(v, indent=2)):
            with pytest.raises(TypeError):
                dumps(value)
    for value in ({1: "int key"}, (1, 2)):  # a result holds neither
        with pytest.raises(TypeError):
            _dumps(value)


def test_cli_output_is_json_dumps_of_the_result(tmp_path, capsys):
    doc = {"n": 2, "variables": ["α", "β_1"],
           "constraints": ["α^2 + β_1^3 - 2*α*β_1"], "options": {"trace": True}}
    path = write_job(tmp_path, doc)
    for task in ("info", "euler", "deform-origin"):
        code, out, err = run_cli(capsys, [task, path])
        assert code == 0, err
        want = run(Job(json.loads(json.dumps(doc)), task, _PARSER.parse_args([task, path])))
        assert out == json.dumps(want, indent=2) + "\n"
        assert "\\u03b1" in out or task == "euler"
