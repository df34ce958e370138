"""Minimal discrete-event simulation core for the cluster substrate.

A deterministic event loop over a priority queue: events fire in (time,
sequence) order, handlers may schedule further events.  Used by the Slurm
scheduler simulation and the Globus transfer model.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from ..obs.registry import MetricsRegistry


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    handler: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventLoop:
    """A deterministic discrete-event clock."""

    def __init__(self, *, metrics: MetricsRegistry | None = None) -> None:
        self._queue: list[_Event] = []
        self._counter = itertools.count()
        self.now: float = 0.0
        #: ``events.*`` volume accounting.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.counter("events.processed")

    def schedule(self, delay: float, handler: Callable[[], None]) -> _Event:
        """Schedule ``handler`` to run ``delay`` time units from now.

        Returns a token usable with :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        ev = _Event(self.now + delay, next(self._counter), handler)
        heapq.heappush(self._queue, ev)
        return ev

    def schedule_at(self, time: float, handler: Callable[[], None]) -> _Event:
        """Schedule ``handler`` at an absolute time (>= now)."""
        return self.schedule(time - self.now, handler)

    def cancel(self, event: _Event) -> None:
        """Cancel a pending event (no-op if already fired)."""
        event.cancelled = True

    def run(self, until: float | None = None) -> float:
        """Process events until the queue drains (or past ``until``).

        Returns the final clock value.
        """
        while self._queue:
            if until is not None and self._queue[0].time > until:
                self.now = until
                return self.now
            ev = heapq.heappop(self._queue)
            if ev.cancelled:
                continue
            self.now = ev.time
            self.metrics.inc("events.processed")
            ev.handler()
        return self.now

    @property
    def pending(self) -> int:
        """Number of uncancelled events still queued."""
        return sum(1 for e in self._queue if not e.cancelled)
