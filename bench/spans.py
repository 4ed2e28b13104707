"""In-memory span tracer that measures the package's layers from outside.

``Tracer.install`` replaces public functions of ``scgates`` modules with
wrappers, once under every module-level name a caller looks them up by, so
the program itself is unchanged.  A span records its name, start, end,
parent, thread and optional attributes.  Spans opened in a worker thread of
a sweep's pool take the span that submitted the work as their parent.
Spans stay in memory until the run ends; nothing is written while timing.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its children.

    Children on worker threads may overlap each other; their union, not
    their sum, is taken off, so self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children.get(s.id, ())) for s in spans}


class Tracer:
    """Collects spans; ``install`` wraps functions, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> Span:
        """Start a span under the thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), name, parent, threading.get_ident(), time.perf_counter())
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def adopt(self, parent: int | None, fn, *args, **kwargs):
        """Run ``fn`` in this thread as if called under span ``parent``."""
        stack = self._stack()
        if parent is not None:
            stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            if parent is not None:
                stack.pop()

    def wrap(self, fn, name: str, annotate=None):
        """``fn`` timed as span ``name``; ``annotate(span, args, result)`` adds attributes."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks run under the span that submitted them."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

        return TracedPool

    def patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, targets) -> None:
        """Wrap each ``(module, attr, span_name, annotate)`` in ``targets``."""
        for module, attr, name, annotate in targets:
            self.patch(module, attr, self.wrap(getattr(module, attr), name, annotate))

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans closed."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)
