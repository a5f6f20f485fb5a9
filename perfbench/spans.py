"""Spans around calls into the library's layers, recorded from outside.

The library has no instrumentation of its own, so the tracer replaces the
module or class attribute a caller looks up (``rng.field_value_vec``,
``TornadoHash.build``, ``experiments._derive_chunk``, ...) with a wrapper
that records a span and, optionally, counters derived from the call's
arguments and result. Spans are kept in memory while the run lasts; a span's
self time is its duration minus the durations of the spans nested in it.
Everything runs in one thread, so nesting is the call stack.

An attribute the library no longer has is recorded as absent instead of
failing, so a refactor that merges or renames a stage keeps the benchmark
running and the report names what it could not see.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    """Installs wrappers, records spans while enabled, restores on exit."""

    def __init__(self) -> None:
        self.enabled = False
        # one list per span: [name, start_ns, end_ns, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()  # span names with at least one wrapper
        self.absent: list[str] = []  # attributes the library no longer has
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Wrap ``owner.attr``; ``count(tracer, args, kwargs, result)`` may
        add counters after each traced call."""
        try:
            raw = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self.installed.add(name)
        is_classmethod = isinstance(raw, classmethod)
        target = raw.__func__ if is_classmethod else raw
        wrapper = self._make_wrapper(target, name, count)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def _make_wrapper(self, fn, name: str, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    # -- recording -----------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    # -- summaries -------------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[i]) / 1e9
        return out
