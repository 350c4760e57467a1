"""Span tracing from outside a package, by wrapping names where callers look them up.

A span is (name, start, end, parent): `parent` is the index of the span that
was open when this one started, or -1.  Spans are kept in memory and written
out by the caller at the end.  Counts are taken from each call's arguments
and return value, after the span has closed, so counting costs no span time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list = []  # (owner, attr, original)

    def wrap(self, owner, attr: str, name: str, count=None):
        """Replace `owner.attr` with a wrapper recording span `name`.

        `owner` is a module or a class; for a class the raw function is
        taken from its __dict__, so the wrapper binds as a method.  `count`
        is called as count(counts, original, args, kwargs, result) after
        a call returns.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, clock, counts = self.spans, self._stack, self.clock, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(counts, original, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def restore(self):
        """Put back every wrapped name, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (the
        span's duration minus the durations of its direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def write_spans(self, path):
        """Write spans as CSV: name, start and end (seconds since the first
        span started) and parent index."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
