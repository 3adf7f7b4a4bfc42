"""Spans around the calls into janglab's layers, for the traced run only.

``install`` replaces every public janglab function that the given namespaces
look up (module globals of janglab.pipeline, janglab.cli, janglab.mass and
janglab.report, plus the benchmark's own call table) with a wrapper that
records a span: its duration and its self time, the duration minus the part
its child spans cover.  ``BarrierProfile.b`` gets a counter instead of a
span, because it is called once per node.  The untraced run never calls
``install``, so it runs the program's own functions.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    """Span totals per label ("module.function"), kept in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.wrapped = set()
        self._stack = []

    def snapshot(self):
        return (dict(self.self_s), dict(self.total_s), dict(self.calls),
                dict(self.counts))

    def restore(self, snap):
        """Drop every span recorded since ``snapshot`` (a failed attempt)."""
        for target, saved in zip((self.self_s, self.total_s, self.calls,
                                  self.counts), snap):
            target.clear()
            target.update(saved)

    def span(self, fn, label, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0
                stack.pop()
                self.self_s[label] += d - frame[0]
                self.total_s[label] += d
                self.calls[label] += 1
                if stack:
                    stack[-1][0] += d
            if after is not None:
                after(self, out)
            return out
        return traced

    def counter(self, fn, label):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[label] += 1
            return fn(*args, **kwargs)
        return counted


def _solver_counts(tracer, limit):
    """Newton work read from the trace of the returned JangLimit."""
    try:
        steps = [s for entry in limit.trace for s in entry["newton_steps"]]
        its = sum(s["iterations"] for s in steps)
        halvings = sum(s["damping_count"] for s in steps)
    except (AttributeError, KeyError, TypeError):
        return
    tracer.counts["jang_solver.newton_iterations"] += its
    tracer.counts["jang_solver.continuation_steps"] += len(steps)
    tracer.counts["jang_solver.armijo_halvings"] += halvings


def _artifact_bytes(tracer, entry):
    try:
        tracer.counts["report.bytes_written"] += int(entry["bytes"])
    except (KeyError, TypeError, ValueError):
        pass


AFTER = {
    "jang_solver.exhaustion_solve": _solver_counts,
    "report.write_artifact": _artifact_bytes,
}


def install(tracer: Tracer, namespaces) -> None:
    """Wrap the public janglab functions each namespace looks up.

    A namespace is a module or any object with attributes.  One wrapper is
    made per function and set in every namespace that holds it.  Names
    that do not exist are simply not wrapped; the metrics built on them
    are then reported as absent.
    """
    import janglab.barrier

    wrappers = {}
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("janglab.")):
                continue
            if obj not in wrappers:
                label = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
                wrappers[obj] = tracer.span(obj, label, AFTER.get(label))
                tracer.wrapped.add(label)
            setattr(ns, name, wrappers[obj])
    profile = getattr(janglab.barrier, "BarrierProfile", None)
    if profile is not None and inspect.isfunction(getattr(profile, "b", None)):
        profile.b = tracer.counter(profile.b, "barrier.b_calls")
        tracer.wrapped.add("barrier.b_calls")
