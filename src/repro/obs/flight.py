"""Flight recorder: ring-buffered runtime snapshots with bounded memory.

A long online simulation (1M users, thousands of slots) needs a
post-hoc answer to "what did the runtime look like around slot 1234?" —
RSS, request counts, fixpoint rounds, phase times, autoscaler state.
:class:`FlightRecorder` keeps the last ``capacity`` per-slot snapshots
in a fixed-size ring (older snapshots are overwritten, ``dropped``
counts them), so memory stays flat no matter how long the run is.

Snapshots are plain dicts and export as ``snapshot`` records in the
schema-2 trace file (see :mod:`repro.obs.export`); attach a recorder to
a tracer via ``tracer.flight = FlightRecorder()`` and
:func:`repro.obs.trace_records` emits them after the gauges.  The CLI
does this automatically for every ``--trace`` run, and
``repro report <trace.jsonl>`` renders the snapshot timeline.
"""

from __future__ import annotations

import os
import resource
import time
from typing import Iterator, Optional

#: Default ring capacity (snapshots kept before overwriting).
DEFAULT_CAPACITY = 1024

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def current_rss_kb() -> int:
    """Resident-set size of this process in KiB.

    Reads ``/proc/self/statm`` (current RSS, Linux); falls back to
    ``ru_maxrss`` (peak RSS, portable) when procfs is unavailable.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * _PAGE_SIZE // 1024
    except (OSError, ValueError, IndexError):
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class FlightRecorder:
    """Fixed-memory ring buffer of per-slot runtime snapshots."""

    __slots__ = ("capacity", "dropped", "_ring", "_next", "_epoch")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.dropped = 0
        self._ring: list[Optional[dict]] = [None] * self.capacity
        self._next = 0
        self._epoch = time.perf_counter()

    def snapshot(self, slot: int, **fields) -> dict:
        """Record one snapshot for ``slot`` and return it.

        ``fields`` are free-form numeric runtime gauges (request
        counts, rounds, phase times …); ``rss_kb`` and the
        capture ``time`` (seconds since the recorder's creation) are
        added automatically.  The oldest snapshot is overwritten once
        the ring is full.
        """
        record = {
            "slot": int(slot),
            "time": time.perf_counter() - self._epoch,
            "data": {"rss_kb": float(current_rss_kb()), **fields},
        }
        idx = self._next % self.capacity
        if self._ring[idx] is not None:
            self.dropped += 1
        self._ring[idx] = record
        self._next += 1
        return record

    def __len__(self) -> int:
        return min(self._next, self.capacity)

    def records(self) -> Iterator[dict]:
        """Retained snapshots, oldest first."""
        if self._next <= self.capacity:
            ring = self._ring[: self._next]
        else:
            cut = self._next % self.capacity
            ring = self._ring[cut:] + self._ring[:cut]
        for record in ring:
            if record is not None:
                yield record

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlightRecorder({len(self)}/{self.capacity} snapshots, "
            f"{self.dropped} dropped)"
        )
