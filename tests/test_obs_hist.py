"""Tests for repro.obs.hist (mergeable streaming latency histograms).

The histogram's contract, pinned property-based where it matters:

* every recorded value lands in a bucket whose representative is within
  the documented relative-error bound (quantiles vs ``np.percentile``);
* ``record_many`` is exactly ``record`` in a loop (same buckets, same
  exact stats);
* merge is associative and commutative on the payload level, so shard
  workers can fold in any order;
* payloads round-trip through ``as_dict``/``from_dict`` (JSON-safe).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import DEFAULT_ERROR, StreamingHistogram, merged_hist

# Positive magnitudes spanning microseconds to ksec — the latency range.
values_st = st.lists(
    st.floats(min_value=1e-6, max_value=1e4, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


def _filled(values, error=DEFAULT_ERROR) -> StreamingHistogram:
    hist = StreamingHistogram(error=error)
    hist.record_many(np.asarray(values, dtype=np.float64))
    return hist


def _assert_same(a: StreamingHistogram, b: StreamingHistogram) -> None:
    """Payload equality modulo float-accumulation order of the sum.

    Bucket counts, extrema and cardinalities are the exact contract;
    ``sum`` is accumulated in stream order so two equivalent streams may
    differ in the last bits.
    """
    da, db = a.as_dict(), b.as_dict()
    sa, sb = da.pop("sum"), db.pop("sum")
    assert da == db
    assert sa == pytest.approx(sb, rel=1e-12, abs=1e-12)


class TestRecord:
    def test_exact_stats(self):
        hist = _filled([1.0, 2.0, 4.0])
        assert hist.count == 3
        assert hist.total == pytest.approx(7.0)
        assert hist.mean == pytest.approx(7.0 / 3.0)
        assert (hist.min, hist.max) == (1.0, 4.0)

    def test_zero_and_negative_go_to_zero_bucket(self):
        hist = StreamingHistogram()
        hist.record(0.0)
        hist.record(-3.0)
        hist.record(5.0)
        assert hist.zero == 2
        assert hist.count == 3
        assert hist.min == -3.0

    def test_non_finite_rejected(self):
        hist = StreamingHistogram()
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                hist.record(bad)
            with pytest.raises(ValueError):
                hist.record_many(np.array([1.0, bad]))

    def test_bad_error_bound_rejected(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                StreamingHistogram(error=bad)

    @given(values=values_st)
    @settings(max_examples=40, deadline=None)
    def test_record_many_equals_record_loop(self, values):
        bulk = _filled(values)
        loop = StreamingHistogram()
        for v in values:
            loop.record(v)
        _assert_same(bulk, loop)


class TestQuantiles:
    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError):
            StreamingHistogram().quantile(0.5)

    def test_extremes_are_exact(self):
        hist = _filled([0.123, 7.0, 42.5])
        assert hist.quantile(0.0) == 0.123
        assert hist.quantile(1.0) == 42.5

    @given(
        values=values_st,
        q=st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantile_within_error_bound(self, values, q):
        """Every quantile is within the documented relative error of the
        nearest-rank sample quantile."""
        hist = _filled(values)
        est = hist.quantile(q)
        rank = max(1, math.ceil(q * len(values)))
        exact = sorted(values)[rank - 1]
        assert est <= exact * (1.0 + DEFAULT_ERROR) * (1 + 1e-9)
        assert est >= exact / (1.0 + DEFAULT_ERROR) * (1 - 1e-9)

    def test_quantile_clamped_to_observed_range(self):
        hist = _filled([3.0] * 100)
        for q in (0.1, 0.5, 0.9, 0.99):
            assert hist.quantile(q) == 3.0


class TestMerge:
    @given(a=values_st, b=values_st)
    @settings(max_examples=40, deadline=None)
    def test_merge_commutes(self, a, b):
        ab = _filled(a)
        ab.merge(_filled(b))
        ba = _filled(b)
        ba.merge(_filled(a))
        assert ab.as_dict() == ba.as_dict()

    @given(a=values_st, b=values_st, c=values_st)
    @settings(max_examples=40, deadline=None)
    def test_merge_associates(self, a, b, c):
        left = _filled(a)
        left.merge(_filled(b))
        left.merge(_filled(c))
        bc = _filled(b)
        bc.merge(_filled(c))
        right = _filled(a)
        right.merge(bc)
        _assert_same(left, right)

    @given(a=values_st, b=values_st)
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_single_stream(self, a, b):
        merged = _filled(a)
        merged.merge(_filled(b))
        _assert_same(merged, _filled(list(a) + list(b)))

    def test_merge_accepts_payload_mapping(self):
        hist = _filled([1.0, 2.0])
        hist.merge(_filled([3.0]).as_dict())
        assert hist.count == 3
        assert hist.max == 3.0

    def test_merge_rejects_error_mismatch(self):
        with pytest.raises(ValueError, match="error"):
            _filled([1.0]).merge(_filled([2.0], error=0.05))

    def test_merged_hist_helper(self):
        payloads = [_filled([1.0]).as_dict(), _filled([2.0, 4.0]).as_dict()]
        total = merged_hist(payloads)
        assert total.count == 3
        _assert_same(total, _filled([1.0, 2.0, 4.0]))


class TestSerialization:
    @given(values=values_st)
    @settings(max_examples=40, deadline=None)
    def test_json_roundtrip(self, values):
        hist = _filled(values)
        payload = json.loads(json.dumps(hist.as_dict()))
        clone = StreamingHistogram.from_dict(payload)
        assert clone.as_dict() == hist.as_dict()
        assert clone.quantile(0.5) == hist.quantile(0.5)

    def test_empty_payload_shape(self):
        payload = StreamingHistogram().as_dict()
        assert payload["count"] == 0
        assert payload["min"] is None and payload["max"] is None
        assert payload["buckets"] == {}
