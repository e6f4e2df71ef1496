"""Tests for repro.runtime.cluster and repro.runtime.metrics."""

import numpy as np
import pytest

from repro.model import Placement, optimal_routing
from repro.model.latency import total_latency
from repro.runtime import (
    LatencyRecorder,
    ServerlessConfig,
    SimulatedCluster,
    summarize_latencies,
)
from repro.runtime.cluster import _Node


@pytest.fixture
def solved_tiny(tiny_instance):
    placement = Placement.full(tiny_instance)
    routing = optimal_routing(tiny_instance, placement)
    return placement, routing


class TestSimulatedCluster:
    def test_all_requests_complete(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        cluster = SimulatedCluster(
            tiny_instance, placement, routing,
            serverless=ServerlessConfig(cold_start=0.0),
        )
        outcomes = cluster.run()
        assert len(outcomes) == tiny_instance.n_requests
        assert all(o.done for o in outcomes)

    def test_uncontended_matches_analytic_model(self, tiny_instance, solved_tiny):
        """With spread-out arrivals and no cold starts, DES latency equals
        the analytic chain-model completion time."""
        placement, routing = solved_tiny
        cluster = SimulatedCluster(
            tiny_instance, placement, routing,
            serverless=ServerlessConfig(cold_start=0.0),
        )
        arrivals = [(h, 1000.0 * h) for h in range(tiny_instance.n_requests)]
        outcomes = cluster.run(arrivals=arrivals)
        analytic = total_latency(tiny_instance, routing, model="chain")
        for o in outcomes:
            assert o.latency == pytest.approx(analytic[o.request], rel=1e-9)
            assert o.queueing == 0.0

    def test_contention_adds_queueing(self, tiny_instance):
        # force every request through node 0 → queueing
        placement = Placement.from_pairs(
            tiny_instance, [(0, 0), (1, 0), (2, 0)]
        )
        routing = optimal_routing(tiny_instance, placement)
        cluster = SimulatedCluster(
            tiny_instance, placement, routing,
            serverless=ServerlessConfig(cold_start=0.0),
        )
        outcomes = cluster.run()  # simultaneous arrivals at t=0
        total_queue = sum(o.queueing for o in outcomes)
        assert total_queue > 0.0
        analytic = total_latency(tiny_instance, routing, model="chain")
        for o in outcomes:
            assert o.latency >= analytic[o.request] - 1e-9

    def test_cold_starts_counted(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        cluster = SimulatedCluster(
            tiny_instance, placement, routing,
            serverless=ServerlessConfig(cold_start=0.5, keep_alive=1e9),
        )
        outcomes = cluster.run()
        assert cluster.pool.cold_starts > 0
        assert any(o.cold_start > 0 for o in outcomes)

    def test_cloud_requests_complete(self, tiny_instance):
        placement = Placement.empty(tiny_instance)
        routing = optimal_routing(tiny_instance, placement)  # all cloud
        cluster = SimulatedCluster(tiny_instance, placement, routing)
        outcomes = cluster.run()
        assert all(o.done for o in outcomes)
        # WAN latency dominates
        assert all(o.latency > 1.0 for o in outcomes)

    def test_latencies_array(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        cluster = SimulatedCluster(tiny_instance, placement, routing)
        cluster.run()
        assert cluster.latencies().shape == (tiny_instance.n_requests,)

    def test_utilization(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        cluster = SimulatedCluster(tiny_instance, placement, routing)
        cluster.run()
        util = cluster.utilization(horizon=100.0)
        assert util.shape == (tiny_instance.n_servers,)
        assert (util >= 0).all()

    def test_deterministic(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny

        def latencies():
            c = SimulatedCluster(tiny_instance, placement, routing)
            c.run()
            return c.latencies()

        assert np.array_equal(latencies(), latencies())

    def test_hop_table_built_only_for_the_event_loop(
        self, tiny_instance, solved_tiny
    ):
        placement, routing = solved_tiny
        arrivals = [(h, 1000.0 * h) for h in range(tiny_instance.n_requests)]
        fast = SimulatedCluster(tiny_instance, placement, routing)
        fast.run(arrivals=arrivals)
        assert fast._hops is None  # the fixpoint replayed the slot
        loop = SimulatedCluster(
            tiny_instance, placement, routing, fast_replay=False
        )
        loop.run(arrivals=arrivals)
        assert loop._hops is not None
        assert [o.finish for o in loop.outcomes] == [
            o.finish for o in fast.outcomes
        ]

    def test_horizon_resumes_where_it_stopped(
        self, tiny_instance, solved_tiny
    ):
        placement, routing = solved_tiny
        arrivals = [(h, 0.05 * h) for h in range(tiny_instance.n_requests)]

        def cluster():
            return SimulatedCluster(
                tiny_instance, placement, routing, fast_replay=False
            )

        whole = cluster()
        whole.run(arrivals=arrivals)
        split = cluster()
        split.run(arrivals=arrivals, until=0.2)
        assert not all(o.done for o in split.outcomes)
        split.run(arrivals=[])
        assert [o.finish for o in split.outcomes] == [
            o.finish for o in whole.outcomes
        ]
        assert split.events_processed == whole.events_processed

    def test_event_budget(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        cluster = SimulatedCluster(tiny_instance, placement, routing)
        cluster.submit(0, 0.0)
        with pytest.raises(RuntimeError, match="event budget exhausted"):
            cluster._loop(None, max_events=3)
        assert cluster.events_processed == 3


class TestMetrics:
    def test_summarize_empty(self):
        s = summarize_latencies([])
        assert s["count"] == 0
        assert s["max"] == 0.0

    def test_summarize_values(self):
        s = summarize_latencies([1.0, 2.0, 3.0, 4.0])
        assert s["mean"] == pytest.approx(2.5)
        assert s["median"] == pytest.approx(2.5)
        assert s["max"] == 4.0

    def test_recorder_slots(self):
        rec = LatencyRecorder()
        rec.record_slot([1.0, 3.0])
        rec.record_slot([2.0])
        rec.record_slot([])
        assert rec.n_slots == 3
        assert np.allclose(rec.slot_means(), [2.0, 2.0, 0.0])
        assert np.allclose(rec.slot_maxima(), [3.0, 2.0, 0.0])

    def test_recorder_overall(self):
        rec = LatencyRecorder()
        rec.record_slot([1.0, 3.0])
        rec.record_slot([5.0])
        overall = rec.overall()
        assert overall["count"] == 3
        assert overall["max"] == 5.0

    def test_all_latencies_empty(self):
        assert LatencyRecorder().all_latencies().size == 0

    def test_all_slots_empty(self):
        rec = LatencyRecorder()
        rec.record_slot([])
        rec.record_slot([])
        assert np.allclose(rec.slot_means(), [0.0, 0.0])
        assert np.allclose(rec.slot_maxima(), [0.0, 0.0])
        assert rec.overall()["count"] == 0

    def test_no_slots(self):
        rec = LatencyRecorder()
        assert rec.slot_means().size == 0
        assert rec.slot_maxima().size == 0

    def test_summarize_single_sample(self):
        s = summarize_latencies([2.5])
        assert s["count"] == 1
        assert s["mean"] == s["median"] == s["p95"] == s["max"] == 2.5


class TestNode:
    def test_ties_go_to_the_first_core(self):
        node = _Node(0, compute=2.0, cores=3)
        assert node.enqueue(0.0, 4.0) == (2.0, 0.0)
        assert node.core_free == [2.0, 0.0, 0.0]
        node.enqueue(0.0, 4.0)
        node.enqueue(0.0, 4.0)
        assert node.core_free == [2.0, 2.0, 2.0]
        # all cores free at 2.0: the first one takes the next job
        assert node.enqueue(1.0, 2.0) == (3.0, 1.0)
        assert node.core_free == [3.0, 2.0, 2.0]


class TestSubmitValidation:
    def test_bad_request_index(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        cluster = SimulatedCluster(tiny_instance, placement, routing)
        with pytest.raises(IndexError, match="outside instance"):
            cluster.submit(99, 0.0)

    def test_negative_arrival(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        cluster = SimulatedCluster(tiny_instance, placement, routing)
        with pytest.raises(ValueError, match="non-negative"):
            cluster.submit(0, -1.0)

    def test_arrival_before_the_clock(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        cluster = SimulatedCluster(
            tiny_instance, placement, routing, fast_replay=False
        )
        cluster.run(arrivals=[(0, 5.0)])
        with pytest.raises(ValueError, match="into the past"):
            cluster.submit(1, 1.0)

    def test_bad_arrival_schedules_nothing(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        cluster = SimulatedCluster(
            tiny_instance, placement, routing, fast_replay=False
        )
        with pytest.raises(IndexError, match="outside instance"):
            cluster.run(arrivals=[(1, 2.0), (99, 0.0)])
        assert cluster.outcomes == [] and cluster.events_processed == 0
