"""A small discrete-event engine with FIFO links — the one transfer model.

The model-clock carrier (:mod:`repro.skypeer.executor`) runs Algorithm 3
as real message handlers on top of this: events are scheduled callbacks,
and links serialize the messages that cross them at the cost model's
bandwidth.  One directed link transmits one message at a time, in
first-ready order (ties in submission order), store-and-forward: a hop
starts only after the previous hop delivered the whole message.  When
many result lists are relayed hop-by-hop towards the initiator (the *FM
variants and the naive baseline) the links close to it are shared and
serialize them — the "potential bottleneck at P_init" progressive
merging avoids, so modelling it matters for Figures 3(c) and 4(a).
"""

from __future__ import annotations

import heapq
from typing import Callable

from .cost import CostModel

__all__ = ["EventLoop", "LinkLayer"]


class EventLoop:
    """Run callbacks in simulated-time order."""

    def __init__(self) -> None:
        self.now = 0.0
        # (time, seq, fn): seq is unique, so fn is never compared.
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` at ``now + delay`` (ties run in FIFO order)."""
        self.schedule_at(self.now + delay, fn)

    def schedule_at(self, time: float, fn: Callable[[], None]) -> None:
        if time < self.now:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap, (time, self._seq, fn))
        self._seq += 1

    def run(self, max_events: int = 10_000_000) -> int:
        """Drain the event queue; returns the number of events run."""
        count = 0
        while self._heap:
            self.now, _seq, fn = heapq.heappop(self._heap)
            fn()
            count += 1
            if count > max_events:
                raise RuntimeError("event budget exceeded; protocol livelock?")
        return count


class LinkLayer:
    """Directed links with per-link FIFO transmission.

    ``send`` accounts the bytes, seizes the link from the moment the
    message is ready, and schedules ``deliver`` at the store-and-forward
    completion time.
    """

    def __init__(self, loop: EventLoop, cost_model: CostModel):
        self._loop = loop
        self._cost = cost_model
        self._free_at: dict[tuple[int, int], float] = {}
        self.bytes_sent = 0
        self.messages_sent = 0

    def send(
        self,
        src: int,
        dst: int,
        nbytes: int,
        deliver: Callable[[], None],
    ) -> tuple[float, float]:
        """Transmit ``nbytes`` from ``src`` to ``dst``; run ``deliver``
        on arrival.  Returns the transmission window ``(start, end)``
        (FIFO serialization may start the transfer after ``now``)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.bytes_sent += nbytes
        self.messages_sent += 1
        edge = (src, dst)
        start = max(self._loop.now, self._free_at.get(edge, 0.0))
        end = start + self._cost.transfer_seconds(nbytes)
        self._free_at[edge] = end
        self._loop.schedule_at(end, deliver)
        return start, end
