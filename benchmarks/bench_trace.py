"""Span tracer for the benchmark.

Spans are recorded from the benchmark's own files: `instrument` replaces, in
each package module's namespace, every function that module imported from
another package module with a timing wrapper, so each call that crosses a
module boundary becomes a span named `<layer>.<function>`.  The package
source is not changed, and `restore` puts the original functions back.

Spans live in memory until the traced unit ends; `summarize` then turns them
into per-layer self times (a span's duration minus the part of its interval
that its child spans cover, children on other threads included).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("cli", "tap", "thermo", "geometry", "hamiltonian", "ground_state", "mixture")
PACKAGE = "multispin"


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    name: str  # "<layer>.<function>"
    start: float
    end: float
    thread: int
    info: object  # what the span's extractor took from its arguments and result


class Tracer:
    """Records spans from any thread; a thread's open spans form a stack,
    and a span started in a worker thread may name its parent explicitly."""

    def __init__(self, extractors=None):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[Span] = []
        # span name -> callable(args, kwargs, result) giving the span's info
        self.extractors = dict(extractors or {})

    def current(self) -> int:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else 0

    def call(self, name, fn, *args, _parent=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = (stack[-1] if stack else 0) if _parent is None else _parent
        stack.append(span_id)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extract = self.extractors.get(name)
            info = extract(args, kwargs, result) if extract and result is not None else None
            self.spans.append(Span(span_id, parent, name, start, end,
                                   threading.get_ident(), info))

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def instrument(tracer: Tracer, modules) -> list:
    """Wrap every cross-module package function in the given modules'
    namespaces; returns what `restore` needs to undo it."""
    patched = []
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj):
                continue
            home = obj.__module__
            layer = home.rpartition(".")[2]
            if home == mod.__name__ or not home.startswith(PACKAGE + ".") or layer not in LAYERS:
                continue
            patched.append((mod, attr, obj))
            setattr(mod, attr, tracer.wrap(f"{layer}.{obj.__name__}", obj))
        if mod.__name__ == PACKAGE + ".cli":
            original = mod._run_tasks
            patched.append((mod, "_run_tasks", original))
            setattr(mod, "_run_tasks", _traced_fanout(tracer, original))
    return patched


def restore(patched) -> None:
    for mod, attr, obj in reversed(patched):
        setattr(mod, attr, obj)


def _traced_fanout(tracer: Tracer, original):
    """The CLI's task fan-out, with each task a `cli.task` span whose parent
    is the fan-out span even when a pool thread runs it."""

    def fanout(tasks, workers):
        parent = tracer.current()
        wrapped = [functools.partial(tracer.call, "cli.task", task, _parent=parent)
                   for task in tasks]
        return original(wrapped, workers)

    def run_tasks(tasks, workers):
        return tracer.call("cli._run_tasks", fanout, tasks, workers)

    return run_tasks


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Summary(NamedTuple):
    self_by_layer: dict  # layer -> seconds
    calls: dict  # span name -> count
    inclusive: dict  # span name -> seconds
    infos: dict  # span name -> list of infos
    by_name: dict  # span name -> list of spans
    children: dict  # span id -> list of child spans


def summarize(spans) -> Summary:
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    infos = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        kids = children.get(s.id, ())
        own = (s.end - s.start) - _covered([(k.start, k.end) for k in kids], s.start, s.end)
        layer = s.name.partition(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
        calls[s.name] += 1
        inclusive[s.name] += s.end - s.start
        by_name[s.name].append(s)
        if s.info is not None:
            infos[s.name].append(s.info)
    return Summary(self_by_layer, dict(calls), dict(inclusive), dict(infos),
                   dict(by_name), dict(children))


def coverage(spans, thread: int, lo: float, hi: float) -> float:
    """Share of [lo, hi] that root spans on the given thread cover."""
    roots = [(s.start, s.end) for s in spans if s.parent == 0 and s.thread == thread]
    return _covered(roots, lo, hi) / (hi - lo) if hi > lo else 0.0


def parallel_efficiency(summary: Summary) -> float:
    """Summed task time / (workers x fan-out wall), over every CLI fan-out."""
    busy = capacity = 0.0
    for fan in summary.by_name.get("cli._run_tasks", ()):
        tasks = summary.children.get(fan.id, ())
        busy += sum(t.end - t.start for t in tasks)
        capacity += fan.info * (fan.end - fan.start)
    return busy / capacity if capacity > 0 else 0.0
