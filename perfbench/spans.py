"""In-memory span recording for the traced benchmark run, plus the
statistics the benchmark reports.

A span is one call of a wrapped function, or one block the benchmark
marks itself. Spans stay in memory until the run ends. The parent of a
span is the innermost open span on the same thread; a span opened on a
thread with no open span (a client worker, the federation server) takes
the tracer's current root, so work done on other threads still counts
against the round that caused it.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    arm: str | None
    meta: object = None


class Tracer:
    """Records spans for wrapped functions and marked blocks.

    `arm` is stamped on every span when it closes; the benchmark sets it
    before running each arm. `meta`, when given to `wrap`, is called with
    the wrapped function's result and arguments and its return value is
    stored on the span (a row count, a frame size).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.root: int | None = None
        self.arm: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False):
        """Time the block as one span. With root=True, spans opened on
        threads that have no open span become its children."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        outer_root = self.root
        if root:
            self.root = sid
        start = self.clock()
        span = Span(sid, name, start, start, parent, threading.get_ident(),
                    None)
        try:
            yield span
        finally:
            span.end = self.clock()
            span.arm = self.arm
            stack.pop()
            if root:
                self.root = outer_root
            self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, meta=None) -> None:
        """Replace owner.attr (a module global or a class attribute) by
        a wrapper that records a span per call. `restore` undoes it."""
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if meta is not None:
                    span.meta = meta(result, *args)
                return result

        self._patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.
    Children on other threads may overlap each other; the union is
    subtracted, so overlapping children are not counted twice."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start)
            - covered_length(children.get(s.sid, ()), s.start, s.end)
            for s in spans}


def tail_percentile(values):
    """The highest nearest-rank percentile that leaves at least ten
    samples above it, as (percentile, value); None with 10 or fewer
    samples. The value of rank k has n - k samples beyond it, so the
    answer is rank n - 10 at percentile 100 * (n - 10) / n."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None
    rank = n - 10
    return 100.0 * rank / n, ordered[rank - 1]

