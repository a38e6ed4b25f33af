"""Outside-in tracer: wraps the package's public functions at run time.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces each target
function in every ``newtonzeta`` module namespace that holds it (so calls
between modules and inside a module are both seen) and wraps
``LatticeFrame.__init__`` for frame construction.  Each call records a
span ``[name, start, end, parent, op]`` in memory; ``metrics`` turns the
spans into per-layer calls and self times once the pass is over.

Self time is a span's duration minus the part of it covered by its
child spans, so within one operation the self times of all spans add up
to the operation's root span.  The tracer's own cost (wrappers and
argument keying) lies inside those spans; ``tracing_overhead_s``
estimates it in the same process, from a calibrated cost per span and
the measured keying time.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict

# per-layer functions: metric name -> (module, attribute)
TARGETS = {
    "cli.main": ("newtonzeta.cli", "main"),
    "systems.parse_polynomial": ("newtonzeta.systems", "parse_polynomial"),
    "systems.restrict_system": ("newtonzeta.systems", "restrict_system"),
    "systems.cone_system": ("newtonzeta.systems", "cone_system"),
    "engine.zeta_deformation": ("newtonzeta.engine", "zeta_deformation"),
    "engine.zeta_polynomial": ("newtonzeta.engine", "zeta_polynomial"),
    "engine.zeta_polynomial_via_cone": ("newtonzeta.engine", "zeta_polynomial_via_cone"),
    "engine.candidate_covectors": ("newtonzeta.engine", "candidate_covectors"),
    "qforms.q_exponent": ("newtonzeta.qforms", "q_exponent"),
    "qforms.q_tilde_exponent": ("newtonzeta.qforms", "q_tilde_exponent"),
    "volumes.mixed_volume_of": ("newtonzeta.volumes", "mixed_volume_of"),
    "volumes.lattice_volume": ("newtonzeta.volumes", "lattice_volume"),
    "polytope.hull": ("newtonzeta.polytope", "hull"),
    "polytope.minkowski_sum": ("newtonzeta.polytope", "minkowski_sum"),
    "polytope.face": ("newtonzeta.polytope", "face"),
    "polytope.dim": ("newtonzeta.polytope", "dim"),
    "polytope.facet_normals": ("newtonzeta.polytope", "facet_normals"),
    "lattice.orthogonal_line_generators": ("newtonzeta.lattice", "orthogonal_line_generators"),
}
FRAME = "lattice.LatticeFrame"
ROOT = "bench.op"
LAYERS = list(TARGETS) + [FRAME]

# calls whose argument values repeat an earlier call in the same pass
REPEAT_KEYED = {
    "volumes.mixed_volume_of": lambda polytopes, frame: (tuple(polytopes), frame),
    "volumes.lattice_volume": lambda P, frame: (P, frame),
    "polytope.minkowski_sum": lambda P, Q: (P, Q),
}


def self_times(spans) -> list[float]:
    """Self time of each span: duration minus the union of its children.

    ``spans`` are ``(name, start, end, parent, op)`` with ``parent`` the
    index of the enclosing span or -1.  Child intervals are clipped to
    the parent and merged, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = defaultdict(set)
        self.observe_s = 0.0  # time spent keying arguments for repeat shares
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _enter(self, name: str) -> list:
        rec = [name, self.clock(), 0.0, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = self.clock()
        self.stack.pop()

    def operation(self, op_id: int, fn, *args, **kwargs):
        """Run one benchmark operation under a root span keyed by ``op_id``."""
        self.op = op_id
        rec = self._enter(ROOT)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(rec)
            self.op = None

    def wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._enter(name)
            try:
                if observe is None:
                    return fn(*args, **kwargs)
                return observe(tracer, fn, args, kwargs)
            finally:
                tracer._exit(rec)

        return traced

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every ``newtonzeta`` namespace holding it."""
        owners = {modname: importlib.import_module(modname) for modname, _ in TARGETS.values()}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "newtonzeta" or k.startswith("newtonzeta."))]
        for name, (modname, attr) in TARGETS.items():
            original = getattr(owners[modname], attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, wrapped)
        frame_cls = owners["newtonzeta.lattice"].LatticeFrame
        init = frame_cls.__init__
        self._installed.append((frame_cls, "__init__", init))
        frame_cls.__init__ = self.wrap(FRAME, init)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # -- results -------------------------------------------------------

    def metrics(self, scale: dict[int, float] | None = None) -> dict[str, float]:
        """Per-layer calls and self times, counts and ratios of the pass.

        ``scale`` maps an operation id to the factor its times are
        multiplied by (none: 1).
        """
        factors = [scale[s[4]] if scale else 1.0 for s in self.spans]
        selfs = [t * f for t, f in zip(self_times(self.spans), factors)]
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        names = [s[0] for s in self.spans]
        mv_under_q = 0
        for (name, _s, _e, parent, _op), t in zip(self.spans, selfs):
            calls[name] += 1
            self_s[name] += t
            if (name == "volumes.mixed_volume_of" and parent >= 0
                    and names[parent] == "qforms.q_exponent"):
                mv_under_q += 1
        out: dict[str, float] = {}
        for name in LAYERS + [ROOT]:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        c = self.counts
        out["engine.candidate_covectors.returned"] = c["candidates"]
        out["engine.contributions"] = c["contributions"]
        out["engine.contribution_yield"] = _ratio(c["contributions"], c["candidates"])
        out["qforms.q_exponent.mixed_volumes_per_call"] = _ratio(
            mv_under_q, calls["qforms.q_exponent"])
        for name in REPEAT_KEYED:
            out[f"{name}.repeat_share"] = _ratio(c[f"{name}.repeats"], calls[name])
        out["polytope.hull.points_in"] = c["hull_in"]
        out["polytope.hull.vertices_out"] = c["hull_out"]
        out["polytope.hull.vertex_yield"] = _ratio(c["hull_out"], c["hull_in"])
        # the traced pass: its operations' root spans, which all self times fill
        out["traced_cold_s"] = sum((s[2] - s[1]) * f
                                   for s, f in zip(self.spans, factors) if s[3] < 0)
        out["self_total_s"] = sum(selfs)
        # the tracer's own cost inside those spans: every span's wrapper
        # plus the argument keying, at the pass's typical scale
        typical = statistics.median(factors) if factors else 1.0
        out["tracing_overhead_s"] = (len(self.spans) * span_cost() + self.observe_s) * typical
        return out


def span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call: a no-op timed bare and wrapped
    (best of three each), under a scratch tracer."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    best: dict = {}
    for fn in (noop, wrapped) * 3:
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        best[fn] = min(best.get(fn, float("inf")), time.perf_counter() - t)
    return max(0.0, (best[wrapped] - best[noop]) / calls)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- observers: count work at the boundary, inside the callee's span ----

def _observe_repeat(name):
    key_of = REPEAT_KEYED[name]

    def observe(tracer, fn, args, kwargs):
        t = tracer.clock()
        key = key_of(*args, **kwargs)
        seen = tracer.seen[name]
        if key in seen:
            tracer.counts[f"{name}.repeats"] += 1
        else:
            seen.add(key)
        tracer.observe_s += tracer.clock() - t
        return fn(*args, **kwargs)
    return observe


def _observe_hull(tracer, fn, args, kwargs):
    points = list(args[0])
    out = fn(points, *args[1:], **kwargs)
    tracer.counts["hull_in"] += len(points)
    tracer.counts["hull_out"] += len(out.vertices)
    return out


def _observe_candidates(tracer, fn, args, kwargs):
    out = fn(*args, **kwargs)
    tracer.counts["candidates"] += len(out)
    return out


def _observe_zeta(tracer, fn, args, kwargs):
    product, traces = fn(*args, **kwargs)
    tracer.counts["contributions"] += sum(1 for t in traces if t.alpha is not None)
    return product, traces


_OBSERVERS = {
    **{name: _observe_repeat(name) for name in REPEAT_KEYED},
    "polytope.hull": _observe_hull,
    "engine.candidate_covectors": _observe_candidates,
    "engine.zeta_deformation": _observe_zeta,
    "engine.zeta_polynomial": _observe_zeta,
}
