"""Spans recorded by the benchmark around calls into the program.

Spans live in memory and are written out once, at the end of the traced
run.  A span names the span that caused it (``parent``, an index into
the list) and the request it belongs to (``workload/index``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans.

    ``span`` nests by the calling thread's open spans and is for the
    thread that drives the replay.  Work that runs on another thread (the
    gateway's dispatch) is timed there and handed in afterwards with
    ``add`` under the span that caused it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[int]:
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, request))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float, parent: int) -> None:
        self.spans.append(Span(name, start, end, parent, self.spans[parent].request))

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


def span_cost(samples: int = 20_000) -> float:
    """Seconds one empty span costs here and now: what tracing adds per span."""
    tracer = Tracer()
    started = time.perf_counter()
    for _ in range(samples):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - started) / samples


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out
