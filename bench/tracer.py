"""Benchmark-side tracer for fblrelay's public functions.

Every public function of the listed modules is wrapped, and the wrapper
is bound in every fblrelay module namespace that imported the function
by name (``block_error`` lives in fbl, fading, relay and montecarlo).
A span is (id, parent id, name, thread, start ns, end ns, counters).
Each thread keeps its own parent stack; work handed to the modules'
thread pools starts under the span that submitted it.  Spans stay in
memory until the pass ends.  Nothing in src/ is changed.
"""

import importlib
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter_ns

import numpy as np

MODULES = ("cli", "scenario", "fbl", "fading", "relay", "optimize",
           "linklayer", "baselines", "montecarlo")
# modules whose thread pools run traced work
_POOL_MODULES = ("cli", "montecarlo")


def _callback(count_points):
    """Count the calls of the callback passed first (phi, objective).

    With count_points, also count the points it is evaluated at.
    """
    def prep(extra, args, kwargs, fn):
        inner = args[0]
        extra["cb_calls"] = extra["cb_points"] = 0

        def counted(x, *rest, **kw):
            extra["cb_calls"] += 1
            extra["cb_points"] += np.size(x) if count_points else 1
            return inner(x, *rest, **kw)
        return (counted,) + tuple(args[1:]), kwargs
    return prep


def _draws(param):
    """Record the number of Monte Carlo draws a call asks for."""
    def prep(extra, args, kwargs, fn):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        value = bound.arguments[param]
        extra["draws"] = 1 if value is None else int(value)
        return args, kwargs
    return prep


def _elems(extra, result):
    extra["elems"] = np.size(result)


# per-function counters: (prep before the call, post on the result)
HOOKS = {
    "fbl.block_error": (None, _elems),
    "fading.exp_average": (_callback(count_points=True), None),
    "optimize.maximize_unimodal": (_callback(count_points=False), None),
    "relay.bl_throughput_perfect_csi": (_draws("n_samples"), None),
    "baselines.ergodic_capacity_relay": (_draws("n_samples"), None),
    "montecarlo.draw_fading": (_draws("size"), None),
    "montecarlo.mc_expected_overall_error": (_draws("n"), None),
    "montecarlo.mc_bl_throughput": (_draws("n"), None),
    "montecarlo.mc_service_stats": (_draws("n"), None),
}


class Tracer:
    """Collects spans while installed; uninstall restores every binding."""

    def __init__(self):
        self.spans = []
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        return stack[-1] if stack else getattr(self._local, "root", None)

    def _run_under(self, parent, fn, *args, **kwargs):
        self._local.root = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.root = None

    def _wrap(self, name, fn):
        prep, post = HOOKS.get(name, (None, None))
        spans, ids, get_ident = self.spans, self._ids, threading.get_ident

        def traced(*args, **kwargs):
            sid = next(ids)
            stack = self._stack()
            parent = self._parent(stack)
            extra = {}
            if prep is not None:
                args, kwargs = prep(extra, args, kwargs, fn)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, name, get_ident(), t0, t1, extra))
            if post is not None:
                post(extra, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        wrappers = {}
        for short in MODULES:
            mod = importlib.import_module("fblrelay." + short)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("fblrelay."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._parent(tracer._stack())
                return super().submit(tracer._run_under, parent, fn,
                                      *args, **kwargs)

        for short in _POOL_MODULES:
            mod = sys.modules["fblrelay." + short]
            self._patch(mod, "ThreadPoolExecutor", TracedPool)

    def _patch(self, mod, attr, value):
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def aggregate(spans, main_thread):
    """Per-function totals and the busy time of worker threads.

    Returns ({name: {"calls", "total_ns", "self_ns", counters...}},
    worker_busy_ns).  Self time is a span's duration minus the part of
    it that its child spans (on any thread) cover.
    """
    thread_of = {s[0]: s[3] for s in spans}
    children = defaultdict(list)
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    agg = defaultdict(lambda: defaultdict(int))
    busy = 0
    for sid, parent, name, thread, t0, t1, extra in spans:
        row = agg[name]
        row["calls"] += 1
        row["total_ns"] += t1 - t0
        row["self_ns"] += t1 - t0 - _covered(children.get(sid, ()), t0, t1)
        for key, value in extra.items():
            row[key] += value
        if thread != main_thread and (parent is None
                                      or thread_of.get(parent) != thread):
            busy += t1 - t0
    return agg, busy
