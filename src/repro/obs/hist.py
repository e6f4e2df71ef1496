"""Mergeable fixed-memory streaming histograms (HDR-style log buckets).

At 1M users the runtime produces one completion latency, one queueing
delay and one replay-round count per request/slot — materializing them
to compute percentiles (the old ``LatencyRecorder.all_latencies``
concatenation) costs O(total-requests) memory and fights the streaming
design.  :class:`StreamingHistogram` replaces that with geometric
("log") buckets: bucket ``i`` covers ``[g**i, g**(i+1))`` for a growth
factor ``g`` chosen from the requested relative-error bound, so the
whole value range collapses into a few hundred integer counters no
matter how many samples stream through.

**Error bound.**  With ``g = (1 + e)**2`` every bucket's geometric
midpoint ``g**(i + 0.5)`` is within relative error ``e`` of *every*
value in the bucket (``max(r/v, v/r) <= sqrt(g) = 1 + e``), so any
quantile estimate returned by :meth:`StreamingHistogram.quantile` is
within relative error ``e`` of the true (nearest-rank) sample quantile.
The property suite (``tests/test_obs_hist.py``) checks this against
``np.percentile`` on random data.

**Merge.**  Histograms with the same error bound merge by adding bucket
counts — associative and commutative, mirroring
:meth:`repro.obs.metrics.MetricsRegistry.merge` — so pool workers ship
:meth:`StreamingHistogram.as_dict` payloads back with their result and
the parent folds them in with :meth:`StreamingHistogram.merge`.
Merged quantiles are identical to recording every sample in one
process (bucket assignment is a pure function of the value).

Zero and negative values land in a dedicated zero bucket (latencies
and round counts are nonnegative; negatives would have no log bucket).
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence, Union

import numpy as np

#: Default quantile relative-error bound (1%).
DEFAULT_ERROR = 0.01


class StreamingHistogram:
    """Log-bucketed streaming histogram with bounded relative error.

    Parameters
    ----------
    error:
        Maximum relative error of :meth:`quantile` answers (default
        :data:`DEFAULT_ERROR` = 1%).  Memory is O(log(max/min) /
        log((1+error)**2)) buckets — ~116 buckets per order of
        magnitude at 1%, independent of the sample count.
    """

    __slots__ = ("error", "_base", "_log_base", "buckets", "zero",
                 "count", "total", "min", "max")

    def __init__(self, error: float = DEFAULT_ERROR) -> None:
        if not (0.0 < error < 1.0):
            raise ValueError(f"error must be in (0, 1), got {error}")
        self.error = float(error)
        #: Bucket growth factor g = (1+e)^2; bucket i covers [g^i, g^(i+1)).
        self._base = (1.0 + self.error) ** 2
        self._log_base = math.log(self._base)
        self.buckets: dict[int, int] = {}
        self.zero = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording ------------------------------------------------------
    def _index(self, value: float) -> int:
        return int(math.floor(math.log(value) / self._log_base))

    def record(self, value: float) -> None:
        """Stream one sample into the histogram (O(1), fixed memory)."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"histogram values must be finite, got {value}")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero += 1
            return
        idx = self._index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def record_many(self, values: Union[np.ndarray, Sequence[float]]) -> None:
        """Vectorized bulk ingest of a 1-D array of samples.

        Equivalent to calling :meth:`record` per element (same bucket
        function), but buckets whole arrays via ``np.unique`` — the hot
        path for per-slot latency columns.
        """
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        if not np.isfinite(arr).all():
            raise ValueError("histogram values must be finite")
        self.count += int(arr.size)
        self.total += float(arr.sum())
        self.min = min(self.min, float(arr.min()))
        self.max = max(self.max, float(arr.max()))
        positive = arr[arr > 0.0]
        self.zero += int(arr.size - positive.size)
        if positive.size == 0:
            return
        idx = np.floor(np.log(positive) / self._log_base).astype(np.int64)
        uniq, counts = np.unique(idx, return_counts=True)
        for i, c in zip(uniq.tolist(), counts.tolist()):
            self.buckets[i] = self.buckets.get(i, 0) + c

    # -- queries --------------------------------------------------------
    @property
    def mean(self) -> float:
        """Exact mean of all recorded samples (sum is tracked exactly)."""
        return self.total / self.count if self.count else 0.0

    def _representative(self, idx: int) -> float:
        # Geometric midpoint of bucket [g^i, g^(i+1)): within relative
        # error `self.error` of every value in the bucket.
        return self._base ** (idx + 0.5)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate, relative error <= ``error``.

        Returns the bucket representative holding the sample of rank
        ``ceil(q * count)`` (rank 1 for ``q == 0``), clamped to the
        exact observed ``[min, max]`` — so ``quantile(0.0) == min`` and
        ``quantile(1.0) == max`` are exact.  Raises ``ValueError`` on an
        empty histogram (there is no sample to answer with).
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError("quantile of an empty histogram")
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        rank = max(1, math.ceil(q * self.count))
        cum = self.zero
        if rank <= cum:
            # The rank-th sample is one of the <= 0 values; min is the
            # tightest bound we kept for those.
            return min(self.min, 0.0)
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if rank <= cum:
                rep = self._representative(idx)
                return min(max(rep, self.min), self.max)
        return self.max  # pragma: no cover - unreachable (counts sum to count)

    def quantiles(self, qs: Sequence[float]) -> list[float]:
        """Batch :meth:`quantile` for a list of probabilities."""
        return [self.quantile(q) for q in qs]

    def __len__(self) -> int:
        return len(self.buckets) + (1 if self.zero else 0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamingHistogram(count={self.count}, "
            f"buckets={len(self.buckets)}, error={self.error})"
        )

    # -- cross-process payloads ----------------------------------------
    def as_dict(self) -> dict:
        """Picklable/JSON-safe snapshot (bucket keys become strings)."""
        return {
            "error": self.error,
            "count": self.count,
            "zero": self.zero,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(i): c for i, c in self.buckets.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StreamingHistogram":
        """Rebuild a histogram from an :meth:`as_dict` payload."""
        hist = cls(error=float(payload.get("error", DEFAULT_ERROR)))
        hist.count = int(payload.get("count", 0))
        hist.zero = int(payload.get("zero", 0))
        hist.total = float(payload.get("sum", 0.0))
        lo = payload.get("min")
        hi = payload.get("max")
        hist.min = math.inf if lo is None else float(lo)
        hist.max = -math.inf if hi is None else float(hi)
        hist.buckets = {
            int(i): int(c) for i, c in payload.get("buckets", {}).items()
        }
        return hist

    def merge(self, other: Union["StreamingHistogram", Mapping]) -> None:
        """Fold another histogram (or its payload) into this one.

        Bucket counts add, ``min``/``max`` combine, exact sums add —
        associative and commutative, so merging N worker payloads in any
        order equals recording every sample under one histogram.  Raises
        ``ValueError`` if the error bounds (bucket bases) differ.
        """
        if isinstance(other, Mapping):
            other = StreamingHistogram.from_dict(other)
        if not math.isclose(other.error, self.error, rel_tol=1e-12):
            raise ValueError(
                f"cannot merge histograms with different error bounds "
                f"({self.error} vs {other.error})"
            )
        self.count += other.count
        self.zero += other.zero
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for idx, c in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + c


def merged_hist(
    payloads: Sequence[Union[StreamingHistogram, Mapping, None]],
    error: Optional[float] = None,
) -> StreamingHistogram:
    """Merge many histogram payloads into a fresh histogram.

    ``error`` defaults to the first payload's bound (or
    :data:`DEFAULT_ERROR` when every payload is empty/None).
    """
    live = [p for p in payloads if p]
    if error is None:
        if live:
            first = live[0]
            error = (
                first.error
                if isinstance(first, StreamingHistogram)
                else float(first.get("error", DEFAULT_ERROR))
            )
        else:
            error = DEFAULT_ERROR
    out = StreamingHistogram(error=error)
    for payload in live:
        out.merge(payload)
    return out
