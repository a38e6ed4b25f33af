"""Run workloads several times and print each metric's spread next to its bound.

    python3 perfbench/repeat.py                       # BENCHMARK.json's workloads, 10 seeds
    python3 perfbench/repeat.py --runs 1 --workloads deform-affine polyzeta-cone mixedvol-d4

Each run is ``run.py`` with its own seed (1, 2, ..., runs) and
``BENCHMARK.json``'s ``run_seconds``, one after another.  For every end-to-end metric the table gives the
median over runs and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  The bounds in ``BENCHMARK.json`` are set from this spread; a
spread at or above a third of its bound is flagged.
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
sys.path.insert(0, HERE)

from corpus import WORKLOADS  # noqa: E402


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    status = 0
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"])]
            began = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            took = time.monotonic() - began
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            status |= not result["correct"]
            print(f"{workload} seed {seed} ({took:.0f} s): correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']}  "
                  + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                              if k in bounds),
                  flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed share "
              f"{' / '.join(f'{s:.4f}' for s in sorted(shares))}")
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            bound = bounds.get(name)
            mark = "" if bound is None or s < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {name:44s} median {statistics.median(values):12.5g} "
                  f"{metric['unit']:6s} spread {s:7.2%}"
                  + (f"  bound {bound:.0%}{mark}" if bound is not None else ""))
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
