"""In-memory spans and counters for the traced benchmark run.

A span records (name, thread id, start, end, parent).  The parent is the
innermost open span on the same thread, so work that a thread pool runs on
its own threads has no parent.  Counters are plain integers keyed by name;
they stand in for spans at boundaries that are crossed tens of thousands of
times per operation, where a span would cost more than the work it times.
"""

import itertools
import threading
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    tid: int
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    """Collects spans and counters; safe to call from several threads.

    Each thread counts into its own dict, and span ids come from one
    ``itertools.count``, so recording takes no lock: pool threads that call
    a counted boundary hundreds of thousands of times would otherwise
    contend for it.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._thread_counters = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        span = Span(
            next(self._ids),
            name,
            threading.get_ident(),
            time.perf_counter(),
            0.0,
            stack[-1].id if stack else None,
            self.op,
        )
        stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def count(self, name, n=1):
        counters = getattr(self._local, "counters", None)
        if counters is None:
            counters = self._local.counters = {}
            self._thread_counters.append(counters)
        counters[name] = counters.get(name, 0) + n

    @property
    def counters(self):
        total = {}
        for counters in list(self._thread_counters):
            for name, n in list(counters.items()):
                total[name] = total.get(name, 0) + n
        return total

    def dump(self):
        return {
            "spans": [
                [s.id, s.name, s.tid, s.start, s.end, s.parent, s.op] for s in self.spans
            ],
            "counters": dict(self.counters),
        }

    def merge(self, data):
        """Add a dump from another process under the current op.

        Span ids are shifted past this tracer's own, so they stay unique.
        """
        offset = next(self._ids)
        self._ids = itertools.count(offset + 1 + max((row[0] for row in data["spans"]), default=0))
        for sid, name, tid, start, end, parent, _op in data["spans"]:
            self.spans.append(
                Span(
                    sid + offset,
                    name,
                    tid,
                    start,
                    end,
                    None if parent is None else parent + offset,
                    self.op,
                )
            )
        for name, n in data["counters"].items():
            self.count(name, n)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the part of it covered by its child spans."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = (s.end - s.start) - covered
    return out
