"""Minimal deterministic discrete-event engine.

A binary-heap event queue with a monotonically increasing sequence
number for stable FIFO ordering among simultaneous events — essential
for reproducible simulations.  Callbacks receive the
:class:`EventQueue`, so handlers can schedule follow-up events.

The heap holds ``(time, seq, event)`` tuples.  ``seq`` is unique, so
the heap orders entries by the two leading numbers alone and never
compares the :class:`Event` objects themselves.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

EventCallback = Callable[["EventQueue"], None]


class Event:
    """One scheduled event; ordering is (time, seq)."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: EventCallback):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event cancelled; the queue skips it on pop."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, "
            f"cancelled={self.cancelled!r})"
        )


class EventQueue:
    """Deterministic event loop."""

    def __init__(self):
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Live events still scheduled (cancelled ones are not counted)."""
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def schedule(self, delay: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = next(self._seq)
        event = Event(time, seq, callback)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def schedule_at(self, time: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (time={time} < now={self._now})"
            )
        seq = next(self._seq)
        event = Event(time, seq, callback)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel ``event``, compacting the heap when cancellations pile up.

        Equivalent to ``event.cancel()`` plus bookkeeping: when more than
        half of a non-trivial heap is dead weight (e.g. per-request
        timeout guards that were cancelled on completion), the heap is
        rebuilt without the cancelled entries so long simulations don't
        accumulate garbage.  The rebuild rewrites the heap list in
        place, so a :meth:`run` in progress keeps popping the live
        entries.
        """
        if event.cancelled:
            return
        event.cancel()
        self._cancelled += 1
        heap = self._heap
        if self._cancelled > 64 and self._cancelled * 2 > len(heap):
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapq.heapify(heap)
            self._cancelled = 0

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled = max(0, self._cancelled - 1)
                continue
            self._now = time
            event.callback(self)
            self._processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or the event
        budget is exhausted.

        The local ``heap`` alias stays valid because :meth:`cancel`
        compacts the same list object in place.
        """
        heap = self._heap
        pop = heapq.heappop
        horizon = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        executed = 0
        while heap:
            entry = pop(heap)
            event = entry[2]
            if event.cancelled:
                self._cancelled = max(0, self._cancelled - 1)
                continue
            time = entry[0]
            if time > horizon:
                heapq.heappush(heap, entry)
                self._now = until
                return
            self._now = time
            event.callback(self)
            self._processed += 1
            executed += 1
            if executed >= budget:
                raise RuntimeError(
                    f"event budget exhausted after {max_events} events at t={self._now}"
                )
