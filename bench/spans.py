"""In-memory span tracing of gesturegen's layers, installed from outside.

A ``Tracer`` swaps each named entry point, as bound in the module (or
class) through which it is called, for a wrapper that records a span:
name, start, end, parent and an optional work count. Nothing inside
``gesturegen`` knows about tracing; uninstalling restores the original
attributes, so an untraced run executes exactly the program's own code.

Spans nest in call order on one thread. A span's self time is its
duration minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into the span list, -1 for a root
    count: int = 0


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``owner.attr`` becomes a timed wrapper.

    ``counter(args, result)`` returns the work count recorded on the span
    (rows, graph nodes, ...); None records no count.
    """

    owner: object
    attr: str
    name: str
    counter: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index].end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(target.name)
            try:
                result = fn(*args, **kwargs)
                if target.counter is not None:
                    self.spans[index].count = target.counter(args, result)
                return result
            finally:
                self._close(index)

        return traced

    def install(self, targets):
        """Wrap every target. Reads the raw attribute (``vars``) so a method
        goes back on its class as the same plain function."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for target in targets:
            original = vars(target.owner)[target.attr]
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()


def self_times(spans) -> list[int]:
    """Per span: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach, span.start), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    count: int = 0


def summarize(spans, scale: float = 1.0) -> dict[str, LayerStats]:
    """Calls, total time, self time and work count per span name; times
    are multiplied by ``scale``."""
    stats = defaultdict(LayerStats)
    for span, own in zip(spans, self_times(spans)):
        s = stats[span.name]
        s.calls += 1
        s.total_ns += (span.end - span.start) * scale
        s.self_ns += own * scale
        s.count += span.count
    return dict(stats)


def accounting(spans, wall_ns: int) -> dict:
    """How the traced wall time splits into span self time and time no
    span covers. Self times of nested spans add up to the root durations;
    a mismatch means the spans did not nest."""
    own = sum(self_times(spans))
    roots = sum(s.end - s.start for s in spans if s.parent < 0)
    return {"self_ns": own, "root_ns": roots, "uncovered_ns": wall_ns - roots, "nested": own == roots}
