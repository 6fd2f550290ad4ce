"""Outside-in tracing of gammakde: spans around calls into each module.

The program has no spans of its own yet, so the traced run patches public
(and a few private) module attributes with wrappers that record a span per
call, plus exact work counters at the same boundaries. Patches are
installed for one traced job at a time and removed afterwards, so the
untraced jobs of the same run execute the unmodified code.

Each span records its name, start, end, parent, thread and replicate.
Spans opened on a pool worker thread hang off the span of the
``_run_replicates`` call that submitted them, so self time (a span's
duration minus the union of its children's intervals) stays correct when
two replicate tasks overlap on the two-worker pool.
"""

import contextlib
import functools
import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int
    thread: int
    replicate: object
    start: float
    end: float = None


class Tracer:
    """Collects spans and counters for one traced job."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.maxima = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name, parent=None, replicate=None):
        stack = self._stack()
        if stack:
            parent = stack[-1].id if parent is None else parent
            replicate = stack[-1].replicate if replicate is None else replicate
        with self._lock:
            sid = next(self._ids)
        rec = Span(sid, name, parent, threading.get_ident(), replicate,
                   time.perf_counter())
        stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def count(self, key, amount):
        with self._lock:
            self.counts[key] += amount

    def maximum(self, key, value):
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- patching --------------------------------------------------------

    def hook(self, module_name, qualname, span_name, after=None,
             wrap_call=None):
        """Wrap ``module.qualname`` everywhere gammakde refers to it.

        A module-level function is replaced in every loaded gammakde module
        that bound it by ``from ... import``; a method is replaced on its
        class. ``after(tracer, bound_args, result)`` records counters;
        ``wrap_call(tracer, original, bound_args)`` replaces the plain call.
        Returns False when the target does not exist.
        """
        module = sys.modules.get(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = module
        for part in filter(None, owner_name.split(".")):
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            return False
        original = vars(owner)[attr]
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            with tracer.span(span_name):
                if wrap_call is not None:
                    result = wrap_call(tracer, original, bound)
                else:
                    result = original(*args, **kwargs)
            if after is not None:
                after(tracer, bound.arguments, result)
            return result

        owners = [owner]
        if owner is module:
            owners = [m for n, m in list(sys.modules.items())
                      if n.split(".")[0] == "gammakde"
                      and getattr(m, attr, None) is original]
        for target in owners:
            setattr(target, attr, wrapper)
            self._patches.append((target, attr, original))
        return True

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()


# -- the hooks --------------------------------------------------------------

def _bytes_read(tr, a, _result):
    tr.count("estimator.bytes_read", os.path.getsize(a["path"]))


def _bytes_written(tr, a, _result):
    tr.count("estimator.bytes_written", os.path.getsize(a["path"]))


def _kernel_evals(tr, a, _result):
    tr.count("estimator.kernel_evals",
             np.broadcast(np.asarray(a["t"]), np.asarray(a["x"])).size)


def _grid_work(tr, a, _result):
    n = np.shape(a["sample"])[0]
    sizes = [np.size(ax) for ax in a["axes"]]
    tr.count("estimator.pair_terms", n * int(np.prod(sizes)))
    tr.maximum("estimator.matrix_mb_computed", 8.0 * n * sum(sizes) / 1e6)


def _point_work(tr, a, _result):
    tr.count("estimator.pair_terms", np.shape(a["sample"])[0])


def _grid_nodes(tr, a, _result):
    tr.count("quadrature.grid_nodes", np.size(a["values"]))


def _quantile_values(tr, a, _result):
    tr.count("models.quantile_values", np.size(a["q"]))


def _excluded(tr, _a, result):
    tr.count("simulate.excluded", sum(result.excluded.values()))


def _study(tr, original, bound):
    # process CPU over workers x wall: how busy the pool keeps the cores
    workers = bound.arguments["config"].workers
    c0, t0 = time.process_time(), time.perf_counter()
    result = original(*bound.args, **bound.kwargs)
    tr.count("simulate.study_cpu_s", time.process_time() - c0)
    tr.count("simulate.study_worker_wall_s",
             workers * (time.perf_counter() - t0))
    return result


def _replicates(tr, original, bound):
    # replicate tasks run on pool threads: parent their spans explicitly
    outer = tr.current()
    task = bound.arguments["task"]

    def traced_task(stream):
        with tr.span("simulate.replicate", parent=outer.id, replicate=stream):
            tr.count("simulate.replicates", 1)
            return task(stream)

    bound.arguments["task"] = traced_task
    return original(*bound.args, **bound.kwargs)


# (module, qualname, span name, after, wrap_call)
HOOKS = [
    ("gammakde.cli", "main", "cli.main", None, None),
    ("gammakde.estimator", "load_sample", "estimator.load_sample",
     _bytes_read, None),
    ("gammakde.estimator", "save_field", "estimator.save_field",
     _bytes_written, None),
    ("gammakde.estimator", "field_on_grid", "estimator.field_on_grid",
     _grid_work, None),
    ("gammakde.estimator", "density_at", "estimator.pointwise",
     _point_work, None),
    ("gammakde.estimator", "density_partial_at", "estimator.pointwise",
     _point_work, None),
    ("gammakde.kernel", "log_kernel_eval", "kernel.log_kernel_eval",
     _kernel_evals, None),
    ("gammakde.kernel", "l_term", "kernel.l_term", None, None),
    ("gammakde.bandwidth", "density_bandwidth", "bandwidth.rule", None, None),
    ("gammakde.bandwidth", "derivative_bandwidth", "bandwidth.rule",
     None, None),
    ("gammakde.bandwidth", "mixing_bandwidth", "bandwidth.rule", None, None),
    ("gammakde.bandwidth", "plug_in_bandwidth", "bandwidth.plug_in",
     None, None),
    ("gammakde.bandwidth", "_pilot_functionals", "bandwidth.pilot",
     None, None),
    ("gammakde.quadrature", "trapezoid_nd", "quadrature.trapezoid",
     _grid_nodes, None),
    ("gammakde.models", "GammaMarginal.pdf", "models.marginal_eval",
     None, None),
    ("gammakde.models", "GammaMarginal.d1", "models.marginal_eval",
     None, None),
    ("gammakde.models", "GammaMarginal.d2", "models.marginal_eval",
     None, None),
    ("gammakde.models", "GammaMarginal.d3", "models.marginal_eval",
     None, None),
    ("gammakde.models", "GammaMarginal.cdf", "models.marginal_eval",
     None, None),
    ("gammakde.models", "GammaMarginal.quantile", "models.quantile",
     _quantile_values, None),
    ("gammakde.simulate", "gen_series", "simulate.gen_series", None, None),
    ("gammakde.simulate", "mc_mise", "simulate.study", _excluded, _study),
    ("gammakde.simulate", "mc_point_stats", "simulate.study", None, _study),
    ("gammakde.simulate", "_run_replicates", "simulate.run_replicates",
     None, _replicates),
]

# per-layer metric -> span name whose outermost calls it sums
BUSY_TIME = {
    "estimator.load_sample_s": "estimator.load_sample",
    "estimator.save_field_s": "estimator.save_field",
    "estimator.pointwise_s": "estimator.pointwise",
    "kernel.log_kernel_eval_s": "kernel.log_kernel_eval",
    "kernel.l_term_s": "kernel.l_term",
    "bandwidth.rule_s": "bandwidth.rule",
    "bandwidth.plug_in_s": "bandwidth.plug_in",
    "bandwidth.pilot_s": "bandwidth.pilot",
    "quadrature.trapezoid_s": "quadrature.trapezoid",
    "models.marginal_eval_s": "models.marginal_eval",
    "models.quantile_s": "models.quantile",
    "simulate.gen_series_s": "simulate.gen_series",
    "simulate.study_s": "simulate.study",
}

# per-layer metric -> span name whose self time it sums
SELF_TIME = {
    "cli.self_s": "cli.main",
    "estimator.contraction_self_s": "estimator.field_on_grid",
}

COUNTERS = [
    "estimator.bytes_read", "estimator.bytes_written",
    "estimator.kernel_evals", "estimator.pair_terms",
    "quadrature.grid_nodes", "models.quantile_values",
    "simulate.replicates", "simulate.excluded",
]


def install(tracer):
    """Patch every hook; return the targets that do not exist."""
    return [f"{mod}.{qual}" for mod, qual, name, after, wrap in HOOKS
            if not tracer.hook(mod, qual, name, after, wrap)]


def _union_length(intervals):
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_metrics(tracer):
    """Per-layer times and counts of one traced job."""
    by_id = {s.id: s for s in tracer.spans}
    children = {}
    for s in tracer.spans:
        children.setdefault(s.parent, []).append(s)

    def outermost(s):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == s.name:
                return False
            p = by_id.get(p.parent)
        return True

    out = {}
    for metric, name in BUSY_TIME.items():
        out[metric] = sum(s.end - s.start for s in tracer.spans
                          if s.name == name and outermost(s))
    for metric, name in SELF_TIME.items():
        out[metric] = sum(
            (s.end - s.start)
            - _union_length([(max(c.start, s.start), min(c.end, s.end))
                             for c in children.get(s.id, [])])
            for s in tracer.spans if s.name == name)
    for key in COUNTERS:
        out[key] = tracer.counts.get(key, 0)
    out["estimator.matrix_mb_computed"] = tracer.maxima.get(
        "estimator.matrix_mb_computed", 0.0)
    worker_wall = tracer.counts.get("simulate.study_worker_wall_s", 0.0)
    out["simulate.pool_cpu_ratio"] = (
        tracer.counts["simulate.study_cpu_s"] / worker_wall
        if worker_wall else 0.0)
    out["trace.spans"] = len(tracer.spans)
    return out


EXACT = COUNTERS + ["estimator.matrix_mb_computed", "trace.spans"]


def combine(per_job):
    """Median of each timing over traced jobs; counters must repeat exactly.

    Returns (metrics, mismatched counter names).
    """
    metrics, mismatched = {}, []
    for key in per_job[0]:
        values = [m[key] for m in per_job]
        if key in EXACT:
            if len(set(values)) != 1:
                mismatched.append(key)
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    return metrics, mismatched
