"""Tests of the benchmark itself: checkers, tracer arithmetic, smoke runs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


# -- closed forms on hand cases ------------------------------------------

def test_permanent_of_2x2():
    assert checks.permanent([[1, 2], [3, 4]]) == 1 * 4 + 2 * 3


def test_bezout_product():
    assert checks.bezout([2, 3]) == 6


def test_closed_forms_agree_with_the_package_in_the_plane():
    from newtonzeta import IntPoint, LatticeFrame, hull, mixed_volume_of

    def body(points):
        return hull([IntPoint(p) for p in points])

    frame = LatticeFrame.standard(2)
    sides = [[1, 2], [3, 1]]
    boxes = [body(corpus._box(row)) for row in sides]
    assert mixed_volume_of(boxes, frame) == checks.permanent(sides)
    simplices = [body(corpus._simplex(2, a)) for a in (2, 3)]
    assert mixed_volume_of(simplices, frame) == checks.bezout([2, 3])


def test_factor_map_merges_and_drops_zero_exponents():
    assert checks.factor_map([(1, 2), (3, -1), (1, -2), (3, 2)]) == {3: 1}
    assert checks.degree([(1, 2), (3, -1)]) == -1


# -- tracer --------------------------------------------------------------

def test_self_times_of_nested_spans():
    # root [0,10] holds a [1,4] (which holds g [2,3]) and b [5,9]
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("g", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("root", 10.0, 12.0, -1, 1),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert sum(tracer.self_times(spans)) == 12.0


def test_self_times_count_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1, 0), ("c", 1.0, 5.0, 0, 0), ("d", 3.0, 11.0, 0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_wraps_every_namespace_and_restores():
    from newtonzeta import engine, polytope, SystemSpec

    original = polytope.hull
    t = tracer.Tracer()
    t.install()
    try:
        assert engine.hull is not original and polytope.hull is not original
        spec = SystemSpec.from_supports(2, [[[1, 0], [0, 1], [2, 1]]])
        product, _ = t.operation(0, engine.zeta_deformation, spec, "origin", "affine")
    finally:
        t.uninstall()
    assert engine.hull is original and polytope.hull is original
    assert product.factors == ((1, 2),)
    m = t.metrics()
    assert m["engine.zeta_deformation.calls"] == 1
    assert m["polytope.hull.calls"] > 0
    assert m["lattice.LatticeFrame.calls"] > 0
    assert m["self_total_s"] == pytest.approx(m["traced_cold_s"])
    doubled = t.metrics({0: 2.0})
    assert doubled["traced_cold_s"] == pytest.approx(2 * m["traced_cold_s"])
    assert doubled["self_total_s"] == pytest.approx(doubled["traced_cold_s"])
    assert 0 < m["tracing_overhead_s"] < m["traced_cold_s"]
    assert set(run.PER_LAYER) <= set(m)


# -- harness -------------------------------------------------------------

def test_corpus_is_a_function_of_the_seed():
    for make in (corpus.deform_affine, corpus.polyzeta_cone, corpus.mixedvol):
        assert make(7) == make(7)
        assert make(7) != make(8)


def test_tally_names_known_faults_and_flags_other_failures():
    known = {"ops": [
        {"label": "ok", "known_fault": None, "failure": None},
        {"label": "big", "known_fault": "F", "failure": "F"},
    ]}
    assert run.tally(known)[:3] == (2, 1, True)
    other = {"ops": [
        {"label": "ok", "known_fault": None, "failure": "wrong"},
        {"label": "big", "known_fault": "F", "failure": "F"},
    ]}
    assert run.tally(other)[:3] == (2, 2, False)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in bench["workloads"]} <= set(corpus.WORKLOADS)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace, tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", trace, "--smoke",
         "--spans", str(spans)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    if trace == "1":
        written = json.loads(spans.read_text())["spans"]
        assert written and all(len(s) == 5 for s in written)
    else:
        assert not spans.exists()


def test_times_scale_with_the_reference_speed():
    import worker

    # a host running the reference work at half speed halves every time;
    # each operation is scaled by the median of the references around it
    R = worker.REFERENCE_S
    assert worker.local_scales([2 * R] * 3) == pytest.approx([0.5] * 3)
    refs = [R] * 4 + [2 * R] * 4
    assert worker.local_scales(refs) == pytest.approx([1, 1, 1, 1, 0.5, 0.5, 0.5, 0.5])
    assert worker.local_scales([R, R, 9 * R, R, R]) == pytest.approx([1.0] * 5)
