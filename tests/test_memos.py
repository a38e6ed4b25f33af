"""Results do not depend on the state of the package's lru_cache memos.

Each computation runs under three memo states: warm, emptied before
every call, and with every memo replaced by a two-entry memo that
evicts all the time.  A result read from a memo, recomputed from
scratch, or recomputed after evictions must be the same.
"""

import random
import sys
from functools import lru_cache

from newtonzeta import LatticeFrame, mixed_volume_of, polytope, zeta_deformation, zeta_polynomial
from tests.conftest import deformation_corpus, random_polytope, route_corpus

MEMOS = {
    "newtonzeta.polytope._dd",
    "newtonzeta.volumes._q_sum_of",
}


def package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name.partition(".")[0] == "newtonzeta"]


def package_memos():
    """Every lru_cache memo defined in the package, by qualified name."""
    return {f"{mod.__name__}.{f.__name__}": f
            for mod in package_modules() for f in vars(mod).values()
            if hasattr(f, "cache_clear") and f.__module__ == mod.__name__}


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
    for spec in route_corpus()[::3]:
        jobs.append(lambda spec=spec: zeta_polynomial(spec, scope="affine"))
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
    small = {f: lru_cache(maxsize=2)(f.__wrapped__) for f in memos.values()}
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if hasattr(value, "cache_clear") and value in small:
                monkeypatch.setattr(mod, attr, small[value])
    evicting = [job() for job in jobs]
    assert evicting == warm
    for f in small.values():
        info = f.cache_info()
        assert info.currsize == 2 and info.misses > 2, info
