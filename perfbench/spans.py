"""Spans around calls into the oneside_levy layers, and their self times.

The benchmark calls every layer function through ``tracer.call(span, fn,
...)``.  With tracing off that is a plain call; with tracing on it records
one span (name, start, end, parent) per call, kept in memory until the run
ends.  A span's self time is its duration minus the durations of its direct
children, so self times of all spans plus the uncovered benchmark glue add up
to the wall time of the traced section.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Tracing on: one span per layer call."""

    enabled = True

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def mark(self) -> int:
        """Index of the next span, to delimit a section for :meth:`summary`."""
        return len(self.spans)

    def summary(self, start: int, end: int):
        """(self seconds by span name, calls by span name, covered seconds)
        of the spans recorded between two marks.

        Covered seconds is the total duration of the section's top-level
        spans, i.e. the part of the section spent inside the layers.
        """
        self_s = defaultdict(float)
        calls = defaultdict(int)
        covered = 0.0
        for name, t0, t1, parent in self.spans[start:end]:
            dur = t1 - t0
            self_s[name] += dur
            calls[name] += 1
            if parent >= start:
                self_s[self.spans[parent][0]] -= dur
            else:
                covered += dur
        return dict(self_s), dict(calls), covered


@contextmanager
def nested_spans(tracer, spec):
    """Span the layer calls that layer modules make into each other.

    ``spec`` maps a module to {attribute: span name}, each attribute a
    function the module imported from another layer.  The attributes are
    replaced by traced wrappers for the duration of the block.
    """
    saved = [(module, attr, getattr(module, attr))
             for module, names in spec.items() for attr in names]

    def wrapper(span, fn):
        return lambda *a, **k: tracer.call(span, fn, *a, **k)

    try:
        for module, attr, fn in saved:
            setattr(module, attr, wrapper(spec[module][attr], fn))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
