"""Span recording over the executor's model clocks.

The executor (:mod:`repro.skypeer.executor`) does not run on wall-clock
time: every step of a query is *placed* on two longest-path clocks over
the dependency DAG — the computational clock (transfers free) and the
total clock (transfers cost ``bytes / bandwidth``).  A :class:`Span` is
therefore an interval *per clock*: the same Algorithm-1 scan occupies
``[arrive.comp, end.comp]`` on one timeline and ``[arrive.total,
end.total]`` on the other, and a transfer has zero extent on the
computational timeline.

Spans carry a ``track`` (the super-peer or link that did the work) so
the exporter (:mod:`repro.obs.export`) can lay a query's parallel
schedule out one row per super-peer, one Chrome-trace "process" per
clock.  Sources shown on a single timeline (the flooded run,
pre-processing) record single-clock spans via
:meth:`Tracer.interval`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Protocol

__all__ = ["ClockLike", "Span", "Tracer"]


class ClockLike(Protocol):
    """Anything with the executor Clock's two timestamps."""

    comp: float
    total: float


@dataclass(frozen=True)
class Span:
    """One named interval, possibly on several clocks at once.

    ``intervals`` maps clock name (``"comp"``, ``"total"``) to a
    ``(start, end)`` pair in model seconds; ``end >= start`` always.
    """

    name: str
    category: str
    track: str
    intervals: tuple[tuple[str, float, float], ...]
    args: tuple[tuple[str, Any], ...] = ()

    def interval(self, clock: str) -> tuple[float, float] | None:
        for name, start, end in self.intervals:
            if name == clock:
                return (start, end)
        return None


class Tracer:
    """Accumulates spans; install via :func:`repro.obs.runtime.install`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        *,
        category: str,
        track: str,
        start: ClockLike,
        end: ClockLike,
        **args: Any,
    ) -> Span:
        """Record an interval on both model clocks at once."""
        recorded = Span(
            name=name,
            category=category,
            track=track,
            intervals=(
                ("comp", float(start.comp), float(end.comp)),
                ("total", float(start.total), float(end.total)),
            ),
            args=tuple(sorted(args.items())),
        )
        self._append(recorded)
        return recorded

    def interval(
        self,
        name: str,
        *,
        category: str,
        track: str,
        start: float,
        end: float,
        clock: str = "total",
        **args: Any,
    ) -> Span:
        """Record an interval on a single named clock."""
        recorded = Span(
            name=name,
            category=category,
            track=track,
            intervals=((clock, float(start), float(end)),),
            args=tuple(sorted(args.items())),
        )
        self._append(recorded)
        return recorded

    def _append(self, span: Span) -> None:
        for clock, start, end in span.intervals:
            if end < start:
                raise ValueError(
                    f"span {span.name!r} ends before it starts on clock "
                    f"{clock!r}: [{start}, {end}]"
                )
        self.spans.append(span)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def clocks(self) -> tuple[str, ...]:
        """Clock names in first-seen order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            for clock, _, _ in span.intervals:
                seen.setdefault(clock)
        return tuple(seen)

    def tracks(self) -> tuple[str, ...]:
        """Track names in first-seen order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track)
        return tuple(seen)

    def by_track(self, track: str, clock: str = "total") -> list[Span]:
        """Spans on one track, sorted by start on ``clock`` (stable)."""
        spans = [s for s in self.spans if s.track == track and s.interval(clock)]
        spans.sort(key=lambda s: (s.interval(clock)[0], -s.interval(clock)[1]))
        return spans

    # ------------------------------------------------------------------
    # structural validation
    # ------------------------------------------------------------------
    def validate(self) -> list[str]:
        """Well-formedness violations (empty list == valid).

        Checks, per clock and per track: every span has non-negative
        extent, and spans are *properly nested or disjoint* — two spans
        on the same row either don't overlap or one contains the other,
        which is exactly what a flame-style trace viewer assumes.
        """
        problems: list[str] = []
        for clock in self.clocks():
            for track in self.tracks():
                spans = self.by_track(track, clock)
                open_stack: list[tuple[float, float, str]] = []
                for span in spans:
                    start, end = span.interval(clock)
                    while open_stack and open_stack[-1][1] <= start:
                        open_stack.pop()
                    if open_stack and end > open_stack[-1][1]:
                        problems.append(
                            f"{clock}/{track}: span {span.name!r} [{start}, {end}] "
                            f"partially overlaps {open_stack[-1][2]!r} "
                            f"[{open_stack[-1][0]}, {open_stack[-1][1]}]"
                        )
                        continue
                    open_stack.append((start, end, span.name))
        return problems

    def extend(self, spans: Iterable[Span]) -> None:
        for span in spans:
            self._append(span)
