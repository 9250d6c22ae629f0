"""Spans around calls into pulselab's layers, recorded from outside the package.

A `Tracer` wraps the module and class attributes that pulselab looks up at
call time (``pulselab.harness.evolve_ensemble``, ``NoiseSampler.sample_block``
and so on), so nothing under ``src/pulselab`` is edited.  `Tracer.patched`
puts every original attribute back on exit, also when the traced code raises.

Spans live in memory.  Each has a parent: the innermost open span of the same
thread or, for a worker thread with nothing open, the innermost open span of
the thread that created the tracer (the harness's chunk threads then hang off
``run_scaling``).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

#: candidate tail percentiles, in per mille so the ten-beyond rule stays exact
PER_MILLE = (500, 750, 900, 950, 990, 999)


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length covered by (start, end) intervals, overlapping parts counted once."""
    total = 0.0
    lo = hi = None
    for start, end in sorted(intervals):
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """The span's duration minus the part of it that its children cover.

    Children that overlap in time (worker threads) are counted once.
    """
    clipped = ((max(c.start, span.start), min(c.end, span.end)) for c in children)
    return span.duration - union_length((s, e) for s, e in clipped if e > s)


def tail_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile with at least ten of `n` samples beyond it."""
    best = None
    for pm in PER_MILLE:
        if n * (1000 - pm) >= 10 * 1000:
            best = pm / 10.0
    return best


def timing_summary(values: list[float]) -> dict[str, float]:
    """Median, tail percentile and sample count of a list of durations.

    With fewer than 20 samples no percentile has ten samples beyond it; the
    tail is then the median and `tail_pct` reads 50.
    """
    n = len(values)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "samples": 0}
    pct = tail_percentile(n) or 50.0
    return {"p50": float(np.percentile(values, 50.0)),
            "tail": float(np.percentile(values, pct)),
            "tail_pct": pct, "samples": n}


class Tracer:
    """Collects spans and work counts; thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.notes: dict[str, list] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._owner = threading.get_ident()

    def _open(self) -> tuple[list[int], int, Optional[int]]:
        tid = threading.get_ident()
        with self._lock:
            sid = next(self._ids)
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                owner = self._stacks.get(self._owner)
                parent = owner[-1] if owner else None
            stack.append(sid)
        return stack, sid, parent

    def _close(self, stack: list[int], sid: int, parent: Optional[int], name: str,
               start: float, end: float) -> None:
        with self._lock:
            stack.pop()
            self.spans.append(Span(sid, name, parent, threading.get_ident(), start, end))

    @contextmanager
    def span(self, name: str):
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(stack, sid, parent, name, start, time.perf_counter())

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def note(self, key: str, value) -> None:
        with self._lock:
            self.notes.setdefault(key, []).append(value)

    def wrap(self, fn: Callable, name: str,
             on_result: Optional[Callable] = None) -> Callable:
        """`fn` inside a span; `on_result(args, result)` runs after the span closes."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # span() inlined: this runs tens of thousands of times per pass
            stack, sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(stack, sid, parent, name, start, time.perf_counter())
            if on_result is not None:
                on_result(args, out)
            return out

        return traced

    @contextmanager
    def patched(self, targets: Iterable[tuple]):
        """Wrap each (owner, attribute, span name, on_result) for the duration.

        An attribute the owner lacks raises AttributeError (after restoring
        the ones already wrapped): a renamed layer must not read as zero calls.
        """
        saved = []
        try:
            for owner, attr, name, on_result in targets:
                had_own = attr in vars(owner)
                original = getattr(owner, attr)
                saved.append((owner, attr, had_own, vars(owner).get(attr)))
                setattr(owner, attr, self.wrap(original, name, on_result))
            yield self
        finally:
            for owner, attr, had_own, original in reversed(saved):
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    # -- queries --------------------------------------------------------------

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.sid]

    def outermost(self, name: str) -> list[Span]:
        """Spans called `name` with no enclosing span of the same name."""
        by_id = {s.sid: s for s in self.spans}
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p = by_id.get(s.parent)
            while p is not None and p.name != name:
                p = by_id.get(p.parent)
            if p is None:
                out.append(s)
        return out
