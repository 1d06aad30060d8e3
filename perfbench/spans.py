"""In-memory spans around dpmod's public functions, and the per-layer metrics.

The tracer patches, for the duration of ``Tracer.installed()``, every public
function defined in a ``dpmod`` module at each place a caller looks it up:
the module attributes of every ``dpmod`` module (so ``experiments``'s imported
``all_pairs_distances`` and ``geodesic``'s own are both wrapped), the
``experiments.RUNNERS`` table, and the ``GaugeParams.build`` classmethod.
Nothing inside ``src/`` changes.

A span records name, start, end, parent span, thread and thread CPU time.
Work that ``util.parallel_map`` hands to pool threads is parented to the
``parallel_map`` span.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import sys
import threading
import time
import types
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    cpu: float = 0.0          # thread CPU time inside the span
    attrs: dict = field(default_factory=dict)

    @property
    def module(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


def _describe(name, out, exc):
    """Counts taken at the layer boundary from a call's result."""
    try:
        return _counts(name, out, exc)
    except (AttributeError, TypeError) as err:  # a changed result type must not break the run
        return {"describe_error": f"{type(err).__name__}: {err}"}


def _counts(name, out, exc):
    if name == "geodesic.all_pairs_distances" and out is not None:
        return {"nodes": int(out.dist.shape[0])}
    if name == "solver.GaugeParams.build" and out is not None:
        pairs = int(out.iu.size)
        # iu, iv (int64) and the per-solve inv_dt (float64): 24 bytes a pair
        return {"pairs": pairs, "pair_bytes": int(out.iu.nbytes + out.iv.nbytes + 8 * pairs)}
    if name in ("solver.solve_dp", "solver.solve_dp_unmodified"):
        result = out if out is not None else getattr(exc, "result", None)
        if result is not None:
            return {"iters": int(result.iterations), "stages": int(result.stages),
                    "converged": bool(result.converged)}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        s = Span(next(self._ids), name, stack[-1] if stack else None,
                 threading.get_ident(), time.perf_counter())
        stack.append(s.id)
        c0 = time.thread_time()
        try:
            yield s
        finally:
            s.cpu = time.thread_time() - c0
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    def _bind(self, fn, parent):
        """fn run under ``parent`` on whichever thread executes it."""
        def bound(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return bound

    def _wrap(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as s:
                if name == "util.parallel_map":
                    args = (tracer._bind(args[0], s.id),) + args[1:]
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    s.attrs = {"error": type(exc).__name__, **_describe(name, None, exc)}
                    raise
                s.attrs = _describe(name, out, None)
                return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap dpmod's public functions at every lookup site; undo on exit."""
        undo = []

        def patch(setter, fn, name):
            setter(self._wrap(fn, name))
            undo.append(lambda: setter(fn))

        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "dpmod" or key.startswith("dpmod.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _is_dpmod_function(value):
                    patch(lambda v, m=mod, a=attr: setattr(m, a, v), value, _span_name(value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if _is_dpmod_function(item):
                            patch(lambda v, d=value, k=key: d.__setitem__(k, v),
                                  item, _span_name(item))
        gauge = getattr(sys.modules.get("dpmod.solver"), "GaugeParams", None)
        build = vars(gauge).get("build") if gauge is not None else None
        if isinstance(build, classmethod):
            patch(lambda v: setattr(gauge, "build", classmethod(v)), build.__func__,
                  "solver.GaugeParams.build")
        try:
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def export(self):
        """Spans as JSON-ready dicts, times relative to the first span, with self times."""
        t0 = min((s.start for s in self.spans), default=0.0)
        tree = _Tree(self.spans)
        return [{"id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
                 "start_s": s.start - t0, "end_s": s.end - t0, "cpu_s": s.cpu,
                 "self_s": tree.self_time(s), "attrs": s.attrs}
                for s in sorted(self.spans, key=lambda s: s.start)]


def _is_dpmod_function(value):
    return (isinstance(value, types.FunctionType)
            and getattr(value, "__module__", "").startswith("dpmod"))


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class _Tree:
    def __init__(self, spans):
        self.by_id = {s.id: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)

    def ancestors(self, s):
        while s.parent in self.by_id:
            s = self.by_id[s.parent]
            yield s

    def self_time(self, s):
        """Duration minus the part covered by descendants from other modules.

        Descendants in the span's own module count as its own work; the first
        descendant of another module on each path is a child layer.
        """
        covered, todo = [], list(self.children.get(s.id, ()))
        while todo:
            c = todo.pop()
            if c.module == s.module:
                todo.extend(self.children.get(c.id, ()))
            else:
                covered.append((max(c.start, s.start), min(c.end, s.end)))
        busy, last = 0.0, s.start
        for a, b in sorted(covered):
            a = max(a, last)
            if b > a:
                busy += b - a
                last = b
        return s.duration - busy


def tail(samples):
    """Highest percentile with at least ten samples beyond it (p50 below 11 samples)."""
    xs = sorted(samples)
    if not xs:
        return 0.0
    return xs[len(xs) - 11] if len(xs) >= 11 else statistics.median(xs)


def layer_metrics(spans):
    """Per-layer metrics of one traced study (0 where the study skips a layer)."""
    tree = _Tree(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    def total(ss):
        return float(sum(s.duration for s in ss))

    def self_total(ss):
        return float(sum(tree.self_time(s) for s in ss))

    def median(xs):
        return statistics.median(xs) if xs else 0.0

    def outermost(module):
        return [s for s in spans if s.module == module
                and not any(a.module == module for a in tree.ancestors(s))]

    apsp = named("geodesic.all_pairs_distances")
    builds = named("solver.GaugeParams.build")
    solves = named("solver.solve_dp", "solver.solve_dp_unmodified")
    solve_walls = [s.duration for s in solves]
    solve_cpu = float(sum(s.cpu for s in solves))
    iters = sum(s.attrs.get("iters", 0) for s in solves)
    brute = [s.duration for s in named("oracle.brute_force_dp")]
    runners = [s for s in spans if s.name.startswith("experiments.run_")]
    return {
        "families.make_s": total(outermost("families")),
        "mesh.write_s": total(named("mesh.write_mesh")),
        "mesh.read_s": total(named("mesh.read_mesh")),
        "metric.io_s": total(named("metric.read_metric", "metric.write_metric")),
        "geodesic.apsp_calls": len(apsp),
        "geodesic.apsp_s": total(apsp),
        "geodesic.apsp_nodes": sum(s.attrs.get("nodes", 0) for s in apsp),
        "metric.hypothesis_self_s": self_total(named("metric.hypothesis_functionals")),
        "metric.class_check_self_s": self_total(named("metric.check_class_membership")),
        "solver.params_build_s": total(builds),
        "solver.pairs": max((s.attrs.get("pairs", 0) for s in builds), default=0),
        "solver.pair_bytes": max((s.attrs.get("pair_bytes", 0) for s in builds), default=0),
        "solver.solves": len(solves),
        "solver.solve_s_p50": median(solve_walls),
        "solver.solve_s_tail": tail(solve_walls),
        "solver.iters": iters,
        "solver.stages": sum(s.attrs.get("stages", 0) for s in solves),
        "solver.us_per_iter": 1e6 * solve_cpu / iters if iters else 0.0,
        "solver.solve_cpu_s": solve_cpu,
        "solver.solve_wait_s": total(solves) - solve_cpu,
        "oracle.instances": len(named("bench.oracle_instance")),
        "oracle.brute_s_p50": median(brute),
        "oracle.brute_s_tail": tail(brute),
        "oracle.solver_s": total([s for s in solves if any(
            a.name == "bench.oracle_instance" for a in tree.ancestors(s))]),
        "experiments.self_s": self_total(runners),
    }


def _per_call_us(fn, min_seconds=0.2, min_calls=5):
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def probe_kernels(mesh, g, g0, p, seed):
    """Median time of the public exact kernels on one mesh, and computed bytes moved.

    Bytes are computed from array sizes (each array the kernel reads or
    writes counted once); they ignore caches and temporaries.
    """
    from dpmod import geodesic, solver

    params = solver.GaugeParams.build(mesh, geodesic.all_pairs_distances(mesh, g0), p=p, D=1.0)
    f = np.random.default_rng(seed).uniform(-1.0, 1.0, mesh.num_nodes)
    C, n, P = mesh.num_cells, mesh.dim, params.iu.size
    # gathered values and node ids, gradient operator, G read and G^-1
    # written then read, df written then read, q / sqrt det / volume
    energy_bytes = 8 * (2 * C * (n + 1) + C * n * (n + 1) + 3 * C * n * n + 2 * C * n + 3 * C)
    # iu, iv, d0[iu, iv], its power, f[iu], f[iv], difference, ratio
    holder_bytes = 8 * 8 * P
    return {
        "solver.energy_p_us": _per_call_us(lambda: solver.energy_p(f, g, p)),
        "solver.energy_p_bytes": energy_bytes,
        "solver.holder_seminorm_us": _per_call_us(lambda: solver.holder_seminorm(f, params)),
        "solver.holder_seminorm_bytes": holder_bytes,
    }
