"""Results do not depend on the state of the package's lru_cache memos.

Each computation runs under three memo states: warm, emptied before
every call, and with every memo replaced by a two-entry memo that
evicts all the time.  A result read from a memo, recomputed from
scratch, or recomputed after evictions must be the same.  No memo hands
out a value that a caller could change, and CLI jobs of every mode run
in one process write what they write on empty memos.
"""

import json
import random
import sys
from functools import lru_cache

from newtonzeta import (LatticeFrame, SystemSpec, mixed_volume_of, polytope,
                        zeta_deformation, zeta_polynomial, zeta_polynomial_via_cone)
from newtonzeta.cli import main
from newtonzeta.lattice import _Value
from tests.conftest import deformation_corpus, random_polytope, route_corpus

MEMOS = {
    "newtonzeta.polytope._dd",
    "newtonzeta.volumes._q_sum_of",
    "newtonzeta.engine._stratum_traces",
}


def package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name.partition(".")[0] == "newtonzeta"]


def package_memos():
    """Every lru_cache memo defined in the package, by qualified name."""
    return {f"{mod.__name__}.{f.__name__}": f
            for mod in package_modules() for f in vars(mod).values()
            if hasattr(f, "cache_clear") and f.__module__ == mod.__name__}


def patch_memos(monkeypatch, make):
    """Replace every memo, in every module that holds it, by ``make(memo)``;
    returns the replacements by original."""
    new = {f: make(f) for f in package_memos().values()}
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if hasattr(value, "cache_clear") and value in new:
                monkeypatch.setattr(mod, attr, new[value])
    return new


def test_every_memo_is_bounded_by_the_one_constant():
    memos = package_memos()
    assert set(memos) == MEMOS
    for name, f in memos.items():
        assert f.cache_parameters()["maxsize"] == polytope._MEMO_SIZE, name


def computations():
    jobs = []
    for spec in deformation_corpus()[:6]:
        for mode in ("origin", "infinity"):
            jobs.append(lambda spec=spec, mode=mode:
                        zeta_deformation(spec, mode=mode, scope="affine"))
    jobs.append(lambda spec=deformation_corpus()[0]:
                zeta_deformation(spec, mode="origin", scope="torus"))
    for spec in route_corpus()[::3]:
        jobs.append(lambda spec=spec: zeta_polynomial(spec, scope="affine"))
        jobs.append(lambda spec=spec: zeta_polynomial_via_cone(spec))
    rng = random.Random(1357)
    for d in (2, 2, 3, 3):
        bodies = [random_polytope(rng, d, npts=d + 1) for _ in range(d)]
        jobs.append(lambda bodies=bodies, d=d:
                    mixed_volume_of(bodies, LatticeFrame.standard(d)))
    return jobs


def test_results_do_not_depend_on_memo_state(monkeypatch):
    memos = package_memos()
    assert set(memos) == MEMOS
    jobs = computations()

    for job in jobs:
        job()
    warm = [job() for job in jobs]

    cleared = []
    for job in jobs:
        for f in memos.values():
            f.cache_clear()
        cleared.append(job())
    assert cleared == warm

    # two-entry memos, patched into every module that holds the original
    small = patch_memos(monkeypatch, lambda f: lru_cache(maxsize=2)(f.__wrapped__))
    evicting = [job() for job in jobs]
    assert evicting == warm
    for f in small.values():
        info = f.cache_info()
        assert info.currsize == 2 and info.misses > 2, info


def deeply_immutable(value) -> bool:
    if isinstance(value, (tuple, frozenset)):
        return all(map(deeply_immutable, value))
    if isinstance(value, _Value):
        return all(deeply_immutable(getattr(value, f)) for f in value._fields)
    return value is None or isinstance(value, int)


def test_no_memo_hands_out_a_mutable_value(monkeypatch):
    def checked(f):
        def returns_immutable(*args):
            result = f.__wrapped__(*args)
            assert deeply_immutable(result), (f.__name__, result)
            return result
        return lru_cache(maxsize=polytope._MEMO_SIZE)(returns_immutable)

    checks = patch_memos(monkeypatch, checked)
    for job in computations():
        job()
    for f in checks.values():
        assert f.cache_info().misses > 0

    # the traces list is the caller's own: emptying it leaves the memo whole
    spec = SystemSpec.from_supports(
        3, [[[2, 0, 0], [0, 3, 0], [1, 1, 1], [0, 0, 2], [3, 2, 1]]])
    z, traces = zeta_deformation(spec, mode="origin", scope="affine")
    expected = list(traces)
    assert z.factors == ((1, 2), (3, -1), (7, -1))
    traces.clear()
    assert zeta_deformation(spec, mode="origin", scope="affine") == (z, expected)


def test_cli_jobs_in_one_process_write_what_they_write_on_empty_memos(tmp_path, capsys):
    # origin and infinity read the same bodies on each stratum, the objective
    # job the same constraints, and the torus job shares the full stratum
    system = {"n": 3, "constraints": ["z1 + z2^2 + z1*z3 + z2*z3^2 + z3^3"],
              "options": {"assume_nondegenerate": True}}
    jobs = [("deform-origin", system), ("deform-infinity", system),
            ("polyzeta", {**system, "objective": "z1^2 + z2 + z3^2"}),
            ("deform-origin", {**system, "scope": "torus"})]

    def run(task, doc):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(doc))
        assert main([task, str(path), "--trace"]) == 0
        return capsys.readouterr().out

    for f in package_memos().values():
        f.cache_clear()
    in_one_process = [run(*job) for job in jobs + jobs]
    assert package_memos()["newtonzeta.engine._stratum_traces"].cache_info().hits > 0
    for job, out in zip(jobs + jobs, in_one_process):
        for f in package_memos().values():
            f.cache_clear()
        assert run(*job) == out
    assert all(json.loads(out)["traces"] for out in in_one_process)
