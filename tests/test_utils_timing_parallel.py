"""Tests for repro.utils.timing and repro.utils.parallel."""

import time
from concurrent.futures import Future

import pytest

from repro.obs import Tracer, current_tracer, use_tracer
from repro.utils.parallel import chunk, effective_workers, parallel_map
from repro.utils.timing import Stopwatch, timed


class TestStopwatch:
    def test_measures_elapsed(self):
        sw = Stopwatch()
        with sw.measure():
            time.sleep(0.01)
        assert sw.elapsed >= 0.009

    def test_laps_accumulate(self):
        sw = Stopwatch()
        with sw.measure():
            pass
        with sw.measure():
            pass
        assert len(sw.laps) == 2
        assert sw.elapsed == pytest.approx(sum(sw.laps))

    def test_double_start_raises(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError, match="already running"):
            sw.start()

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError, match="not running"):
            Stopwatch().stop()

    def test_running_flag(self):
        sw = Stopwatch()
        assert not sw.running
        sw.start()
        assert sw.running
        sw.stop()
        assert not sw.running

    def test_reset(self):
        sw = Stopwatch()
        with sw.measure():
            pass
        sw.reset()
        assert sw.elapsed == 0.0
        assert sw.laps == []

    def test_exception_still_stops(self):
        sw = Stopwatch()
        with pytest.raises(ValueError):
            with sw.measure():
                raise ValueError("boom")
        assert not sw.running
        assert sw.elapsed >= 0.0

    def test_reset_while_running_raises(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError, match="running"):
            sw.reset()
        # the guard must not disturb the in-flight lap
        assert sw.running
        sw.stop()
        assert len(sw.laps) == 1


class TestTimed:
    def test_returns_result_and_time(self):
        result, seconds = timed(sum, range(100))
        assert result == 4950
        assert seconds >= 0.0

    def test_kwargs_forwarded(self):
        result, _ = timed(sorted, [3, 1, 2], reverse=True)
        assert result == [3, 2, 1]

    def test_exception_carries_elapsed(self):
        def boom():
            time.sleep(0.01)
            raise ValueError("boom")

        with pytest.raises(ValueError) as excinfo:
            timed(boom)
        assert excinfo.value.elapsed_seconds >= 0.01


class TestEffectiveWorkers:
    def test_one(self):
        assert effective_workers(1) == 1

    def test_zero_means_all(self):
        assert effective_workers(0) >= 1

    def test_minus_one_means_all(self):
        assert effective_workers(-1) == effective_workers(0)

    def test_positive_honoured_as_given(self):
        # resolving a count starts no process, so a large value is safe here
        assert effective_workers(10_000) == 10_000

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            effective_workers(-2)


class TestChunk:
    def test_balanced(self):
        chunks = chunk(list(range(10)), 3)
        assert [len(c) for c in chunks] == [4, 3, 3]

    def test_preserves_order(self):
        chunks = chunk(list(range(10)), 3)
        flat = [x for c in chunks for x in c]
        assert flat == list(range(10))

    def test_more_chunks_than_items(self):
        chunks = chunk([1, 2], 5)
        assert chunks == [[1], [2]]

    def test_empty_input(self):
        assert chunk([], 3) == []

    def test_invalid_n_chunks(self):
        with pytest.raises(ValueError):
            chunk([1], 0)


def _square(x: int) -> int:
    return x * x


def _bump(x: int) -> int:
    tracer = current_tracer()
    with tracer.span("cell"):
        tracer.inc("cells")
        tracer.inc("total", x)
    return x


class _InlineExecutor:
    """Stand-in for ``ProcessPoolExecutor``: records its size, runs inline."""

    sizes: list[int] = []

    def __init__(self, max_workers: int):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


@pytest.fixture
def inline_pool(monkeypatch):
    monkeypatch.setattr(_InlineExecutor, "sizes", [])
    monkeypatch.setattr("repro.utils.parallel.ProcessPoolExecutor", _InlineExecutor)
    return _InlineExecutor.sizes


class TestParallelMap:
    def test_serial_path(self):
        assert parallel_map(_square, [1, 2, 3], n_jobs=1) == [1, 4, 9]

    def test_small_input_falls_back_to_serial(self, inline_pool):
        # fewer than two items never builds a pool
        assert parallel_map(_square, [2], n_jobs=4) == [4]
        assert inline_pool == []

    def test_pool_capped_at_work(self, inline_pool):
        # forking starts every max_workers process at once, so a pool
        # larger than its chunk count would only start idle processes
        assert parallel_map(_square, [1, 2, 3], n_jobs=8) == [1, 4, 9]
        assert inline_pool == [3]

    def test_process_pool_preserves_order(self):
        items = list(range(64))
        out = parallel_map(_square, items, n_jobs=2)
        assert out == [x * x for x in items]

    def test_traced_fan_out_matches_serial(self):
        """A traced fan-out reports the counters and cell roots of a
        traced serial run."""
        items = [1, 2, 3, 4]
        traces = {}
        for n_jobs in (1, 2):
            tracer = Tracer(f"jobs={n_jobs}")
            with use_tracer(tracer):
                assert parallel_map(_bump, items, n_jobs=n_jobs) == items
            traces[n_jobs] = tracer
        assert traces[1].counters == traces[2].counters == {"cells": 4, "total": 10}
        for tracer in traces.values():
            assert [r.name for r in tracer.roots] == [f"_bump[{i}]" for i in range(4)]
            assert all([c.name for c in r.children] == ["cell"] for r in tracer.roots)
