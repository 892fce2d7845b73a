"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``(id, parent, name, rid, start, end, attrs)``: ``parent`` is
the id of the span open on the same thread when it started (0 at the
top), ``rid`` the request it serves (``tenant/chunk`` or
``arch/pass``).  Spans stay in memory until the run ends and are then
written out as JSON lines.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    rid: str
    start: float
    end: float
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: Iterable[Span]) -> float:
    """The span's duration minus its children's durations.

    Children are leaf spans recorded one after another on the span's own
    thread, so they never overlap.
    """
    return span.duration - sum(child.duration for child in children)


class Tracer:
    """Thread-safe span recorder; each thread keeps its own open-span stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, rid: str = "", **attrs) -> Iterator[int]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, rid, start, end,
                                   attrs))

    def record(self, name: str, start: float, end: float, rid: str = "",
               **attrs) -> None:
        """Add a finished leaf span under the span open on this thread."""
        stack = self._stack()
        self.spans.append(Span(next(self._ids), stack[-1] if stack else 0,
                               name, rid, start, end, attrs))

    def children(self) -> Dict[int, List[Span]]:
        by_parent: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            by_parent[span.parent].append(span)
        return by_parent

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(span._asdict()) + "\n")
