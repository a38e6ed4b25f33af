"""Benchmark entry point: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload deform-affine --seed 1 --seconds 30 --trace 0

A run is one round: a fresh process (``worker.py``) that imports the
package and makes a cold pass with empty caches, running each operation
once more warm right after its cold run, then checks every output.
Import-only processes add set-up samples: eight before the round, and
after it as many as fit until ``--seconds`` have passed (eight at
least).  ``setup_s`` is the median set-up time of all the run's
processes.  Every time is scaled to a reference host speed by the
process that measures it (see ``REFERENCE_S`` in ``worker.py``).

With ``--trace 1`` the round is traced instead, and the run reports
per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit code 0 means the run
completed; anything else (for example, no ``src/newtonzeta`` to measure)
exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from corpus import WORKLOADS  # noqa: E402
from tracer import LAYERS, REPEAT_KEYED, ROOT as OP_SPAN  # noqa: E402

SETUP_PROBES = 8  # import-only processes before the round, and at least as many after
RUN_LIMIT_S = 170  # a run that cannot finish by then gives no result

END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "cold_op_p50_s": "s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{name}.{kind}": unit for name in LAYERS + [OP_SPAN]
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "engine.candidate_covectors.returned": "count",
    "engine.contributions": "count",
    "engine.contribution_yield": "ratio",
    "qforms.q_exponent.mixed_volumes_per_call": "ratio",
    **{f"{name}.repeat_share": "ratio" for name in REPEAT_KEYED},
    "polytope.hull.points_in": "count",
    "polytope.hull.vertices_out": "count",
    "polytope.hull.vertex_yield": "ratio",
    "traced_cold_s": "s",
    "tracing_overhead_s": "s",
}


class RunError(Exception):
    """A worker process could not be completed; the run has no result."""


def child(workload: str, seed: int, mode: str, deadline: float, *, smoke=False,
          jobs=None, spans=None) -> tuple[dict, float]:
    """Run one worker process; return its report and its spawn time."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if smoke:
        cmd.append("--smoke")
    if jobs:
        cmd += ["--jobs", str(jobs)]
    if spans and mode == "traced":
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} process did not end within {RUN_LIMIT_S} s of the run") from exc
    if proc.returncode != 0:
        raise RunError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"{mode} process printed no report")
    return json.loads(lines[-1]), spawned


def tally(report: dict) -> tuple[int, int, bool, dict[str, int]]:
    """Attempted and failed operations, and whether every failure is a
    known fault."""
    failed = 0
    correct = True
    reasons: dict[str, int] = {}
    for op in report["ops"]:
        reason = op["failure"]
        if reason is None:
            continue
        failed += 1
        known = reason == op["known_fault"]
        correct = correct and known
        key = f"{op['label']}: " + (f"known fault: {reason}" if known else reason)
        reasons[key] = reasons.get(key, 0) + 1
    return len(report["ops"]), failed, correct, reasons


def measure(args) -> tuple[dict, dict]:
    """Set-up probes, the round, and set-up probes until the time is up;
    return the metrics and the round's report."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = []

    def run_child(mode: str, **opts) -> dict:
        report, spawned = child(args.workload, args.seed, mode, deadline, **opts)
        setups.append((report["setup_done"] - spawned) * report["setup_scale"])
        return report

    for _ in range(SETUP_PROBES):
        run_child("setup")
    report = run_child("traced" if args.trace else "timed", smoke=args.smoke,
                       jobs=args.jobs, spans=args.spans)
    probes = 0
    while probes < SETUP_PROBES or time.monotonic() - start < args.seconds:
        run_child("setup")
        probes += 1
    if args.trace:
        values, units = report["layers"], PER_LAYER
    else:
        values = {"setup_s": statistics.median(setups),
                  **{k: report[k] for k in END_TO_END if k != "setup_s"}}
        units = END_TO_END
    return {k: {"value": values[k], "unit": u} for k, u in units.items()}, report


def _print_summary(args, metrics, report, attempted, failed, reasons) -> None:
    reference = report["reference_s"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"attempted {attempted}  failed {failed}  reference work "
          f"{1000 * reference:.2f} ms (times below are scaled to the reference speed)")
    for reason, count in sorted(reasons.items()):
        print(f"  failed x{count}: {reason}")
    traced_total = metrics.get("traced_cold_s", {}).get("value")
    for name, m in metrics.items():
        share = ""
        if traced_total and name.endswith(".self_s"):
            share = f"  {100 * m['value'] / traced_total:5.1f}% of traced_cold_s"
        print(f"  {name:48s} {m['value']:14.6f} {m['unit']}{share}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one small input per workload, for a quick self-test")
    ap.add_argument("--jobs", type=int, default=None,
                    help="pass --jobs N to the CLI (reference figure, not a metric)")
    ap.add_argument("--spans", default=None, metavar="FILE",
                    help="with --trace 1, write the traced pass's spans to FILE")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "newtonzeta", "__init__.py")):
        print("error: no src/newtonzeta next to the benchmark", file=sys.stderr)
        return 2
    try:
        metrics, report = measure(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, correct, reasons = tally(report)
    _print_summary(args, metrics, report, attempted, failed, reasons)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
