"""One round of a workload in a fresh process: set-up, cold pass, warm pass.

Run by ``run.py``; prints one JSON line.  The package is imported first
and the moment the import returns is reported, so the parent can time
set-up from interpreter start.  Then the round builds its inputs from
the seed and makes the cold pass (empty caches) in a seeded order; each
operation is run again warm, on the identical input, right after its
cold run.  The seed-independent oversized-coefficient jobs run after
the pass, outside every timing; then every output is checked.

``--mode traced`` replaces the timed pass by one cold pass under the
outside-in tracer and reports per-layer metrics instead; ``--mode
setup`` stops after the import.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import newtonzeta  # noqa: E402,F401
import newtonzeta.cli  # noqa: E402,F401

SETUP_DONE = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

from newtonzeta import cli, engine, volumes  # noqa: E402
from newtonzeta import IntPoint, LatticeFrame, SystemSpec, hull  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
from tracer import Tracer  # noqa: E402

# Each operation is run again warm right after its cold run, and warm_s
# sums those warm latencies.  Cold and warm figures then sample the same
# stretch of time: on a shared 2-core host the CPU speed drifts by 10-15%
# over a few seconds, and a separate warm phase of a few seconds at the
# end of the round would carry all of one such drift.

# Reference work, timed before every operation (and a few times in each
# import-only process).  On a shared 2-core host the CPU speed moves by
# 10-15% within seconds and by up to 40% between minutes, so every time
# is scaled to the host speed at which the reference work takes
# REFERENCE_S: measured seconds * REFERENCE_S / the median reference time
# of the REFERENCE_WINDOW operations centred on the one measured.  A
# change to the package moves a scaled time exactly as much as the
# measured one; a shift in the host's own speed moves both the time and
# the reference and cancels.
REFERENCE_LOOPS = 20000
REFERENCE_S = 0.003
REFERENCE_WINDOW = 5
SETUP_REFERENCES = 9

# the fault every oversized-coefficient job runs into today
PARSER_FAULT = ("systems._Parser.parse_base: int() raises ValueError on a "
                "5000-digit literal, so the CLI exits 3 instead of 2")


class Op:
    """One user-level call: ``run`` does the work, ``check`` judges its output."""

    def __init__(self, label, run, check, known_fault=None):
        self.label = label
        self.run = run
        self.check = check
        self.known_fault = known_fault


def _cli_call(task: str, doc: dict, extra=()):
    text = json.dumps(doc)

    def run():
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([task, "-", *extra])
        finally:
            sys.stdin = stdin
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return run


# -- workloads: (timed ops, untimed known-fault ops) ---------------------

def deform_affine(seed, smoke, jobs):
    extra = ["--jobs", str(jobs)] if jobs else []
    ops = []
    euler_cache = {}
    for i, job in enumerate(corpus.deform_affine(seed, smoke)):
        doc, supports = job["doc"], job["supports"]
        key = json.dumps(doc, sort_keys=True)

        def check(out, key=key, n=doc["n"], supports=supports):
            if out["exit"] != 0:
                return f"exit {out['exit']}: {out['stderr'].strip()[:200]}"
            result = json.loads(out["stdout"])
            bad = checks.check_cli_zeta(result)
            if bad:
                return bad
            if key not in euler_cache:
                euler_cache[key] = checks.fiber_euler(n, supports)
            chi = euler_cache[key]
            if result["degree"] != chi:
                return f"degree {result['degree']} != fiber Euler characteristic {chi}"
            return None

        ops.append(Op(f"{job['task']}#{i // 2}", _cli_call(job["task"], doc, extra), check))

    faulty = []
    for job in corpus.oversized_jobs():
        plain = _cli_call(job["task"], job["plain"], extra)

        def check(out, plain=plain):
            if out["exit"] == 2:
                return None
            if out["exit"] == 0:
                ref = plain()
                if ref["exit"] == 0 and ref["stdout"] == out["stdout"]:
                    return None
                return "exit 0 with a result that differs from coefficient 1"
            if out["exit"] == 3 and "integer string conversion" in out["stderr"]:
                return PARSER_FAULT
            return f"exit {out['exit']}: {out['stderr'].strip()[:120]}"

        faulty.append(Op(f"{job['task']}#oversized", _cli_call(job["task"], job["doc"], extra),
                         check, known_fault=PARSER_FAULT))
    return ops, faulty


def _summary_zeta(product, traces):
    return {
        "factors": [list(f) for f in product.factors],
        "traces": [[sorted(t.index_set), t.m, t.exponent] for t in traces],
    }


def polyzeta_cone(seed, smoke, jobs):
    ops = []
    for i, system in enumerate(corpus.polyzeta_cone(seed, smoke)):
        n = system["n"]
        spec = SystemSpec.from_supports(n, system["constraints"],
                                        objective_support=system["objective"],
                                        nondegeneracy_acknowledged=True)
        pair = {}

        def direct(spec=spec):
            return _summary_zeta(*engine.zeta_polynomial(spec, "affine"))

        def cone(spec=spec):
            return {"factors": [list(f) for f in engine.zeta_polynomial_via_cone(spec).factors]}

        def check_direct(out, pair=pair, n=n):
            headline = checks.factor_map(out["factors"])
            if headline != checks.factor_map((m, e) for _I, m, e in out["traces"]):
                return "traces do not multiply to the headline"
            pair["torus"] = checks.factor_map(
                (m, e) for I, m, e in out["traces"] if len(I) == n)
            return None

        def check_cone(out, pair=pair):
            cone_map = checks.factor_map(out["factors"])
            if pair.get("torus") != cone_map:
                return f"cone route {cone_map} != full-stratum traces {pair.get('torus')}"
            return None

        ops.append(Op(f"direct#{i}", direct, check_direct))
        ops.append(Op(f"cone#{i}", cone, check_cone))
    return ops, []


def mixedvol(seed, smoke, jobs):
    ops = []
    triples = {}
    items = corpus.mixedvol(seed, smoke)
    frame = LatticeFrame.standard(len(items[0]["bodies"]))
    for i, item in enumerate(items):
        bodies = [hull([IntPoint(p) for p in body]) for body in item["bodies"]]

        def run(bodies=bodies):
            return volumes.mixed_volume_of(bodies, frame)

        if item["kind"] == "box":
            def check(out, want=checks.permanent(item["sides"])):
                return None if out == want else f"box MV {out} != permanent {want}"
        elif item["kind"] == "simplex":
            def check(out, want=checks.bezout(item["dilations"])):
                return None if out == want else f"simplex MV {out} != Bezout product {want}"
        else:
            group = triples.setdefault(item["group"], {})

            def check(out, group=group, role=item["role"]):
                group[role] = out
                if role != "A+B":
                    return None
                if out != group["A"] + group["B"]:
                    return f"MV(A+B,..) {out} != MV(A,..) + MV(B,..) = {group['A'] + group['B']}"
                return None
        ops.append(Op(f"{item['kind']}#{i}", run, check))
    return ops, []


BUILDERS = {"deform-affine": deform_affine, "polyzeta-cone": polyzeta_cone,
            "mixedvol-d4": mixedvol}


# -- passes --------------------------------------------------------------

def _attempt(op):
    try:
        return op.run()
    except Exception as exc:  # an operation that raises has failed; keep going
        return {"exception": f"{type(exc).__name__}: {exc}"}


def _digest(out) -> str:
    return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()


def _order(workload: str, seed: int, count: int) -> list[int]:
    """Seeded execution order, so each kind of operation is spread over the pass."""
    order = list(range(count))
    random.Random(f"{workload}/{seed}/order").shuffle(order)
    return order


def _reference(clock=time.perf_counter) -> float:
    """Time a fixed piece of pure-Python work: int arithmetic and dict updates.

    It allocates no container the garbage collector tracks, so its speed
    follows the CPU's, not the size of the package's caches.
    """
    t = clock()
    d = {}
    for i in range(REFERENCE_LOOPS):
        k = (i * 7919) & 1023
        d[k] = d.get(k, 0) + i
    return clock() - t


def local_scales(refs: list[float]) -> list[float]:
    """Scale factor for each of a pass's operations, in execution order,
    from the reference times measured before each of them."""
    half = REFERENCE_WINDOW // 2
    return [REFERENCE_S / statistics.median(refs[max(0, k - half):k + half + 1])
            for k in range(len(refs))]


def _timed_pass(ops, order, clock=time.perf_counter):
    """Each operation once on cold caches, then once warm.

    Returns outputs, scaled cold and warm latencies (all in corpus
    order), the operations whose warm output differed, and the
    reference times measured before each operation.
    """
    outputs, cold, warm = [None] * len(ops), [0.0] * len(ops), [0.0] * len(ops)
    unstable = set()
    ref = []
    for i in order:
        ref.append(_reference())
        t = clock()
        outputs[i] = _attempt(ops[i])
        cold[i] = clock() - t
        t = clock()
        again = _attempt(ops[i])
        warm[i] = clock() - t
        if _digest(again) != _digest(outputs[i]):
            unstable.add(i)
    for i, scale in zip(order, local_scales(ref)):
        cold[i] *= scale
        warm[i] *= scale
    return outputs, cold, warm, unstable, ref


def _traced_pass(ops, order, tracer):
    outputs = [None] * len(ops)
    ref = []
    for i in order:
        ref.append(_reference())
        outputs[i] = tracer.operation(i, _attempt, ops[i])
    return outputs, ref


def _judge(op, out):
    if isinstance(out, dict) and "exception" in out:
        return out["exception"]
    try:
        return op.check(out)
    except Exception as exc:  # a check that cannot read the output fails the op
        return f"check raised {type(exc).__name__}: {exc}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), default="timed")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--jobs", type=int, default=None)
    ap.add_argument("--spans", default=None, help="write the traced pass's spans here")
    args = ap.parse_args()
    report = {"setup_done": SETUP_DONE}
    if args.mode == "setup":
        ref = [_reference() for _ in range(SETUP_REFERENCES)]
        report["reference_s"] = statistics.median(ref)
        report["setup_scale"] = REFERENCE_S / report["reference_s"]
        print(json.dumps(report))
        return

    ops, faulty = BUILDERS[args.workload](args.seed, args.smoke, args.jobs)
    order = _order(args.workload, args.seed, len(ops))
    unstable = set()
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
        outputs, ref = _traced_pass(ops, order, tracer)
        tracer.uninstall()
        report["layers"] = tracer.metrics(dict(zip(order, local_scales(ref))))
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"],
                           "spans": tracer.spans}, fh)
    else:
        outputs, cold, warm, unstable, ref = _timed_pass(ops, order)
        report["cold_s"] = sum(cold)
        report["cold_op_p50_s"] = statistics.median(cold)
        report["warm_s"] = sum(warm)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["reference_s"] = statistics.median(ref)
    report["setup_scale"] = local_scales(ref)[0]

    all_ops = ops + faulty
    outputs += [_attempt(op) for op in faulty]
    report["ops"] = [
        {"label": op.label, "known_fault": op.known_fault,
         "failure": ("warm pass output differs from the cold pass"
                     if i in unstable else _judge(op, out))}
        for i, (op, out) in enumerate(zip(all_ops, outputs))
    ]
    print(json.dumps(report))


if __name__ == "__main__":
    main()
