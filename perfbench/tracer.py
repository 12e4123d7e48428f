"""In-memory span tracer for the per-layer breakdown.

A span is one call of an instrumented function: its name, start and end on
``time.perf_counter``, and the span that was open in the same thread when it
began (its parent).  Spans stay in memory until
``summarize`` folds them into per-name call counts, inclusive time and self
time.  Self time is a span's duration minus the durations of its child
spans; children are strictly nested in their parent's interval because they
ran on the same thread's call stack.

Counters are named sums that the instrumented calls add to, so ratios are
measured where the work happens.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(name, self.clock(), 0.0, parent)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = self.clock()
            stack.pop()

    def inside(self, name: str) -> bool:
        """True when a span of this name is open on the calling thread."""
        return any(self.spans[i].name == name for i in self._stack())

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    def wrap(self, name: str, fn, on_return=None):
        """Wrap fn in a span; on_return(bound_arguments, result) runs after it closes."""
        signature = inspect.signature(fn) if on_return is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(bound.arguments, result)
            return result

        return traced


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        duration = span.end - span.start
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_s[i]
    return out
