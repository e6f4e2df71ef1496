"""Tests for repro.runtime.events and repro.runtime.serverless."""

import pytest

from repro.model import Placement
from repro.runtime import EventQueue, InstancePool, InstanceState, ServerlessConfig


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        log = []
        q.schedule(2.0, lambda _: log.append("b"))
        q.schedule(1.0, lambda _: log.append("a"))
        q.schedule(3.0, lambda _: log.append("c"))
        q.run()
        assert log == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        q = EventQueue()
        log = []
        for tag in "abc":
            q.schedule(1.0, lambda _, t=tag: log.append(t))
        q.run()
        assert log == ["a", "b", "c"]

    def test_now_advances(self):
        q = EventQueue()
        times = []
        q.schedule(1.5, lambda eq: times.append(eq.now))
        q.schedule(4.0, lambda eq: times.append(eq.now))
        q.run()
        assert times == [1.5, 4.0]
        assert q.now == 4.0

    def test_nested_scheduling(self):
        q = EventQueue()
        log = []

        def first(eq):
            log.append(("first", eq.now))
            eq.schedule(2.0, lambda e: log.append(("second", e.now)))

        q.schedule(1.0, first)
        q.run()
        assert log == [("first", 1.0), ("second", 3.0)]

    def test_schedule_at(self):
        q = EventQueue()
        hits = []
        q.schedule_at(5.0, lambda eq: hits.append(eq.now))
        q.run()
        assert hits == [5.0]

    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.schedule(1.0, lambda eq: None)
        q.run()
        with pytest.raises(ValueError, match="past"):
            q.schedule_at(0.5, lambda eq: None)
        with pytest.raises(ValueError, match="past"):
            q.schedule(-1.0, lambda eq: None)

    def test_cancellation(self):
        q = EventQueue()
        log = []
        ev = q.schedule(1.0, lambda _: log.append("cancelled"))
        q.schedule(2.0, lambda _: log.append("kept"))
        ev.cancel()
        q.run()
        assert log == ["kept"]

    def test_run_until(self):
        q = EventQueue()
        log = []
        q.schedule(1.0, lambda _: log.append(1))
        q.schedule(10.0, lambda _: log.append(2))
        q.run(until=5.0)
        assert log == [1]
        assert q.now == 5.0
        assert q.pending == 1

    def test_event_budget(self):
        q = EventQueue()

        def forever(eq):
            eq.schedule(1.0, forever)

        q.schedule(0.0, forever)
        with pytest.raises(RuntimeError, match="budget"):
            q.run(max_events=100)

    def test_step_empty(self):
        assert EventQueue().step() is False

    def test_processed_counter(self):
        q = EventQueue()
        q.schedule(1.0, lambda _: None)
        q.schedule(2.0, lambda _: None)
        q.run()
        assert q.processed == 2

    def test_pending_excludes_cancelled(self):
        q = EventQueue()
        events = [q.schedule(float(i), lambda _: None) for i in range(5)]
        q.cancel(events[1])
        events[3].cancel()
        assert q.pending == 3

    def test_compaction_during_run_keeps_live_events(self):
        """Cancelling >64 guards from inside callbacks compacts the heap
        while ``run`` is popping it; no live event may be lost."""
        q = EventQueue()
        log = []
        guards = [
            q.schedule(100.0 + i, lambda _, i=i: log.append(("guard", i)))
            for i in range(100)
        ]

        def work(eq, i):
            log.append(("work", i))
            eq.cancel(guards[i])
            if i + 1 < len(guards):
                eq.schedule(1.0, lambda e, i=i + 1: work(e, i))

        q.schedule(0.0, lambda e: work(e, 0))
        q.run()
        assert log == [("work", i) for i in range(100)]
        assert q.processed == 100
        assert q.pending == 0


class TestInstancePool:
    def _pool(self, tiny_instance, pairs, **cfg):
        placement = Placement.from_pairs(tiny_instance, pairs)
        return InstancePool(placement, ServerlessConfig(**cfg))

    def test_initially_cold(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)])
        assert pool.state(0, 0, now=0.0) is InstanceState.COLD

    def test_absent_state(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)])
        assert pool.state(1, 0, now=0.0) is InstanceState.ABSENT

    def test_cold_invocation_pays_penalty(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)], cold_start=0.7)
        assert pool.invoke(0, 0, now=0.0) == 0.7
        assert pool.cold_starts == 1

    def test_warm_invocation_free(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)], cold_start=0.7, keep_alive=100.0)
        pool.invoke(0, 0, now=0.0)
        assert pool.invoke(0, 0, now=50.0) == 0.0
        assert pool.warm_hits == 1

    def test_keep_alive_expiry(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)], cold_start=0.7, keep_alive=10.0)
        pool.invoke(0, 0, now=0.0)
        assert pool.state(0, 0, now=20.0) is InstanceState.COLD
        assert pool.invoke(0, 0, now=20.0) == 0.7

    def test_absent_invocation_raises(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)])
        with pytest.raises(ValueError, match="not provisioned"):
            pool.invoke(2, 2, now=0.0)

    def test_update_placement_evicts(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0), (1, 1)])
        pool.invoke(0, 0, now=0.0)
        new = Placement.from_pairs(tiny_instance, [(1, 1)])
        pool.update_placement(new)
        assert pool.state(0, 0, now=1.0) is InstanceState.ABSENT
        assert pool.n_provisioned == 1

    def test_surviving_instances_stay_warm(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0), (1, 1)], keep_alive=100.0)
        pool.invoke(1, 1, now=0.0)
        pool.update_placement(
            Placement.from_pairs(tiny_instance, [(1, 1), (2, 2)])
        )
        assert pool.state(1, 1, now=5.0) is InstanceState.WARM

    def test_warm_count(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0), (1, 1)], keep_alive=10.0)
        pool.invoke(0, 0, now=0.0)
        assert pool.warm_count(now=5.0) == 1
        assert pool.warm_count(now=50.0) == 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ServerlessConfig(cold_start=-1.0)
