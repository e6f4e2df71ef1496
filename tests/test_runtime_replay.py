"""Tests for the vectorized fault-free slot replay through
``SimulatedCluster`` (one region: :func:`repro.runtime.shard.replay_slot`).

The fast path's contract is *bit-identical* equality with the
discrete-event loop on fault-free slots — not approximate agreement —
so every comparison here uses exact ``==`` / ``array_equal``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.scenarios import ScenarioParams, build_scenario
from repro.model import Placement, optimal_routing
from repro.runtime import ServerlessConfig, SimulatedCluster
from repro.runtime.cluster import _Node
from repro.runtime.replay import NODE_CORES, ReplayResult
from repro.runtime.resilience import (
    FaultConfig,
    FaultInjector,
    ResiliencePolicy,
)
from repro.runtime.serverless import InstancePool
from repro.runtime.shard import replay_slot


def _solved(seed: int, n_users: int, n_servers: int = 6, keep: float = 1.0):
    inst = build_scenario(
        ScenarioParams(n_servers=n_servers, n_users=n_users, seed=seed)
    )
    placement = Placement.full(inst)
    if keep < 1.0:
        gen = np.random.default_rng(seed + 1)
        for svc, node in list(placement.pairs()):
            if gen.random() > keep:
                placement.remove(svc, node)
    routing = optimal_routing(inst, placement)
    return inst, placement, routing


def _run_pair(inst, placement, routing, arrivals, serverless):
    """Run the same slot through both paths on independent state."""
    outs = []
    clusters = []
    for fast in (True, False):
        cluster = SimulatedCluster(
            inst,
            placement,
            routing,
            serverless=serverless,
            fast_replay=fast,
        )
        outs.append(cluster.run(arrivals=list(arrivals)))
        clusters.append(cluster)
    return outs, clusters


class TestReplayEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        n_users=st.integers(min_value=1, max_value=10),
        span=st.floats(min_value=0.5, max_value=50.0),
        cold=st.floats(min_value=0.0, max_value=2.0),
        keep_alive=st.floats(min_value=0.1, max_value=30.0),
        keep=st.sampled_from([1.0, 0.7]),
    )
    def test_bit_identical_to_event_loop(
        self, seed, n_users, span, cold, keep_alive, keep
    ):
        """Property: latencies, queueing, cold starts, pool counters and
        node utilization all match the event loop exactly."""
        inst, placement, routing = _solved(seed, n_users, keep=keep)
        gen = np.random.default_rng(seed)
        at = gen.uniform(0.0, span, size=inst.n_requests)
        arrivals = [(h, float(at[h])) for h in range(inst.n_requests)]
        serverless = ServerlessConfig(cold_start=cold, keep_alive=keep_alive)
        (fast, slow), (cf, cs) = _run_pair(
            inst, placement, routing, arrivals, serverless
        )
        # with continuous arrival times the fast path should engage
        assert cf.events_processed == 0
        assert cs.events_processed > 0
        assert len(fast) == len(slow) == inst.n_requests
        for a, b in zip(fast, slow):
            assert a.request == b.request
            assert a.start == b.start
            assert a.finish == b.finish  # exact, not approx
            assert a.queueing == b.queueing
            assert a.cold_start == b.cold_start
        assert cf.pool.cold_starts == cs.pool.cold_starts
        assert cf.pool.warm_hits == cs.pool.warm_hits
        assert cf.pool._last_used == cs.pool._last_used
        horizon = float(at.max()) + 1.0
        assert np.array_equal(
            cf.utilization(horizon), cs.utilization(horizon)
        )
        for na, nb in zip(cf.nodes, cs.nodes):
            assert np.array_equal(na.core_free, nb.core_free)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=20))
    def test_multi_slot_warm_carry(self, seed):
        """Keep-alive state carried across slots through a shared pool
        stays bit-identical between the two paths."""
        inst, placement, routing = _solved(seed, n_users=6)
        serverless = ServerlessConfig(cold_start=0.8, keep_alive=5.0)
        pools = [InstancePool(placement, serverless) for _ in range(2)]
        gen = np.random.default_rng(seed)
        offsets = [gen.uniform(0.0, 4.0, size=inst.n_requests) for _ in range(3)]
        for slot, at in enumerate(offsets):
            base = 6.0 * slot
            arrivals = [
                (h, float(base + at[h])) for h in range(inst.n_requests)
            ]
            results = []
            for fast, pool in zip((True, False), pools):
                cluster = SimulatedCluster(
                    inst,
                    placement,
                    routing,
                    pool=pool,
                    fast_replay=fast,
                )
                results.append(cluster.run(arrivals=list(arrivals)))
            for a, b in zip(*results):
                assert a.finish == b.finish
                assert a.cold_start == b.cold_start
        assert pools[0]._last_used == pools[1]._last_used
        assert pools[0].cold_starts == pools[1].cold_starts
        assert pools[0].warm_hits == pools[1].warm_hits


class TestReplayDeclines:
    def test_simultaneous_same_node_arrivals_fall_back(self):
        """Exact arrival ties on a shared node are event-order dependent;
        the fast path must decline and the event loop take over."""
        inst, placement, routing = _solved(seed=3, n_users=5)
        cluster = SimulatedCluster(inst, placement, routing)
        assert cluster.fast_replay
        outcomes = cluster.run()  # default: everyone at t=0
        assert len(outcomes) == inst.n_requests
        assert all(o.done for o in outcomes)
        # the decline was a real replay attempt → flag cleared,
        # and the slot actually ran through the event heap
        assert not cluster.fast_replay
        assert cluster.events_processed > 0

    def test_faults_bypass_replay_without_clearing_flag(self):
        inst, placement, routing = _solved(seed=3, n_users=4)
        injector = FaultInjector(FaultConfig.at_intensity(0.5), seed=0)
        faults = injector.for_slot(0, placement, horizon=300.0)
        cluster = SimulatedCluster(inst, placement, routing, faults=faults)
        assert cluster.replay([0.0] * inst.n_requests) is None
        # eligibility failed before any attempt: flag untouched
        assert cluster.fast_replay

    def test_policy_bypasses_replay(self):
        inst, placement, routing = _solved(seed=3, n_users=4)
        cluster = SimulatedCluster(
            inst, placement, routing, policy=ResiliencePolicy()
        )
        assert cluster.replay([0.0] * inst.n_requests) is None
        assert cluster.fast_replay

    def test_until_horizon_uses_event_loop(self):
        inst, placement, routing = _solved(seed=3, n_users=4)
        cluster = SimulatedCluster(inst, placement, routing)
        arrivals = [(h, 10.0 * h) for h in range(inst.n_requests)]
        cluster.run(arrivals=arrivals, until=5.0)
        assert cluster.events_processed > 0

    def test_replay_declines_after_cluster_ran(self):
        inst, placement, routing = _solved(seed=3, n_users=4)
        cluster = SimulatedCluster(inst, placement, routing)
        cluster.run(arrivals=[(0, 0.0)])
        assert cluster.replay([1.0], requests=[1]) is None

    def test_non_two_core_nodes_decline_untouched(self):
        """The fixpoint implements only the two-core claim rule: a node
        with any other core count declines the slot, mutating nothing."""
        inst, placement, routing = _solved(seed=2, n_users=6)
        pool = InstancePool(
            placement, ServerlessConfig(cold_start=0.5, keep_alive=2.0)
        )
        svc, node = next(iter(placement.pairs()))
        pool.prewarm(svc, node, 0.0)
        before = (pool.cold_starts, pool.warm_hits, dict(pool._last_used))
        req = np.arange(inst.n_requests)
        at = np.random.default_rng(2).uniform(0.0, 9.0, size=req.size)
        compute = inst.network.compute
        nodes = [_Node(k, float(c), 3) for k, c in enumerate(compute)]
        assert replay_slot(
            inst, placement, routing, pool, nodes, req, at
        ) is None
        assert (pool.cold_starts, pool.warm_hits, pool._last_used) == before
        for nd in nodes:
            assert nd.core_free == [0.0, 0.0, 0.0]
            assert nd.busy_time == 0.0
        # the same slot on the cluster's two-core nodes commits
        nodes = [_Node(k, float(c), NODE_CORES) for k, c in enumerate(compute)]
        assert replay_slot(
            inst, placement, routing, pool, nodes, req, at
        ) is not None

    def test_disabled_flag_skips_replay(self):
        inst, placement, routing = _solved(seed=3, n_users=4)
        cluster = SimulatedCluster(
            inst, placement, routing, fast_replay=False
        )
        arrivals = [(h, 7.0 * h) for h in range(inst.n_requests)]
        cluster.run(arrivals=arrivals)
        assert cluster.events_processed > 0


class TestReplayValidation:
    def test_bad_request_index(self):
        inst, placement, routing = _solved(seed=1, n_users=3)
        cluster = SimulatedCluster(inst, placement, routing)
        with pytest.raises(IndexError, match="outside instance of size"):
            cluster.replay([0.0], requests=[inst.n_requests])

    def test_negative_arrival(self):
        inst, placement, routing = _solved(seed=1, n_users=3)
        cluster = SimulatedCluster(inst, placement, routing)
        with pytest.raises(ValueError, match="must be non-negative"):
            cluster.replay([-1.0], requests=[0])

    def test_mismatched_lengths(self):
        inst, placement, routing = _solved(seed=1, n_users=3)
        cluster = SimulatedCluster(inst, placement, routing)
        with pytest.raises(ValueError, match="equal-length"):
            cluster.replay([0.0, 1.0], requests=[0])

    def test_same_errors_as_submit(self):
        inst, placement, routing = _solved(seed=1, n_users=3)
        a = SimulatedCluster(inst, placement, routing)
        b = SimulatedCluster(inst, placement, routing)
        with pytest.raises(IndexError) as via_replay:
            a.replay([0.0], requests=[99])
        with pytest.raises(IndexError) as via_submit:
            b.submit(99, 0.0)
        assert str(via_replay.value) == str(via_submit.value)


class TestReplaySlot:
    def test_empty_slot(self):
        inst, placement, routing = _solved(seed=1, n_users=3)
        pool = InstancePool(placement, ServerlessConfig())
        cluster = SimulatedCluster(inst, placement, routing, pool=pool)
        result = replay_slot(
            inst,
            placement,
            routing,
            pool,
            cluster.nodes,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )
        assert isinstance(result, ReplayResult)
        assert result.n_requests == 0
        assert result.latency.size == 0

    def test_result_shapes_and_latency(self):
        inst, placement, routing = _solved(seed=2, n_users=4)
        cluster = SimulatedCluster(inst, placement, routing)
        at = np.linspace(0.0, 9.0, inst.n_requests)
        result = cluster.replay(at)
        assert result is not None
        assert result.rounds >= 1
        n = inst.n_requests
        for arr in (
            result.request,
            result.start,
            result.finish,
            result.queueing,
            result.cold_start,
        ):
            assert arr.shape == (n,)
        assert np.array_equal(result.latency, result.finish - result.start)
        assert np.array_equal(result.start, at)

    def test_replay_is_stateless_until_commit(self):
        """A successful replay commits pool/node state exactly once."""
        inst, placement, routing = _solved(seed=2, n_users=4)
        cluster = SimulatedCluster(inst, placement, routing)
        at = np.linspace(0.0, 9.0, inst.n_requests)
        first = cluster.replay(at)
        assert first is not None
        # the cluster has now been used: a second replay must decline
        # (outcomes untouched by replay(); state check is queue+pool)
        cluster._materialize(first)
        assert cluster.replay(at) is None
