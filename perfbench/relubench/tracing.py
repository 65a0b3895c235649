"""In-memory span recorder for the benchmark's traced runs.

A span has an id, a name, the id of the span that was open when it started
(its parent), the name of the outermost open span (its root), a start and an
end.  Spans are recorded from outside the library: `Tracer.patched` swaps
recording wrappers in for the module attributes that callers look the
library's public functions up through, and puts the originals back on exit.
Nothing is written until `to_json` is called at the end of a run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    """One timed interval.  An aggregate span stands for many calls of one
    callable under one parent: `count` calls, `busy` seconds in total."""

    __slots__ = ("id", "name", "parent", "root", "start", "end", "count", "busy", "attrs")

    def __init__(self, id, name, parent, root, start, end=None, count=1, busy=None):
        self.id = id
        self.name = name
        self.parent = parent
        self.root = root
        self.start = start
        self.end = end
        self.count = count
        self.busy = busy
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.busy if self.busy is not None else self.end - self.start

    def to_json(self) -> dict:
        out = {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }
        if self.busy is not None:
            out.update(count=self.count, busy=self.busy)
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._aggregates: dict[tuple, Span] = {}

    def _open(self, name: str, start: float) -> Span:
        top = self._stack[-1] if self._stack else None
        s = Span(
            len(self.spans),
            name,
            None if top is None else top.id,
            name if top is None else top.root,
            start,
        )
        self.spans.append(s)
        return s

    @contextmanager
    def span(self, name: str, **attrs):
        s = self._open(name, self.clock())
        s.attrs.update(attrs)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn, measure=None):
        """Record one span per call of fn; measure(args, result) returns
        counts to attach, computed after the span has ended."""

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if measure is not None:
                s.attrs.update(measure(args, result))
            return result

        return traced

    def wrap_aggregate(self, name: str, fn):
        """Record fn's calls as one aggregate span per parent; for callables
        invoked once per grid point, where a span per call would cost more
        than the call."""

        def traced(*args):
            t0 = self.clock()
            result = fn(*args)
            t1 = self.clock()
            top = self._stack[-1] if self._stack else None
            key = (name, None if top is None else top.id)
            s = self._aggregates.get(key)
            if s is None:
                s = self._aggregates[key] = self._open(name, t0)
                s.count, s.busy = 0, 0.0
            s.count += 1
            s.busy += t1 - t0
            s.end = t1
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Set owner.attr = replacement for each (owner, attr, replacement)
        while the block runs, then restore the original attributes."""
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, replacement in targets:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def to_json(self) -> list[dict]:
        return [s.to_json() for s in self.spans]


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover.

    Ordinary children count by the union of their intervals clipped to the
    parent; an aggregate child counts by its summed busy time, since its
    calls run one after another inside the parent.
    """
    intervals: dict[int, list] = {}
    aggregated: dict[int, float] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is None:
            continue
        if s.busy is not None:
            aggregated[s.parent] = aggregated.get(s.parent, 0.0) + s.busy
            continue
        p = by_id[s.parent]
        lo, hi = max(s.start, p.start), min(s.end, p.end)
        if hi > lo:
            intervals.setdefault(s.parent, []).append((lo, hi))
    return {
        s.id: s.duration
        - (0.0 if s.busy is not None else _union_length(intervals.get(s.id, ())))
        - aggregated.get(s.id, 0.0)
        for s in spans
    }
