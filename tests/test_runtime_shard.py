"""Tests for repro.runtime.shard (region-sharded slot replay).

The sharded engine's contract is *bit-identical* equality with the flat
fixpoint replay — same committed columns, same round count, same pool
and node state, same decline decisions — so every comparison here uses
exact ``==`` / ``array_equal`` / ``tobytes()``, never approx.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.scenarios import ScenarioParams, build_scenario
from repro.model import Placement, optimal_routing
from repro.runtime import ServerlessConfig, SimulatedCluster
from repro.runtime.replay import replay_slot
from repro.runtime.serverless import InstancePool
from repro.runtime.shard import (
    RegionMap,
    _core_free_final,
    _fifo_reference,
    _fifo_starts,
    partition_cluster,
    replay_slot_sharded,
)


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


def _run_pair(inst, placement, routing, at, region_map, serverless):
    """The same slot through the flat and sharded engines, fresh state."""
    req = np.arange(inst.n_requests)
    pool_a = InstancePool(placement, serverless)
    pool_b = InstancePool(placement, serverless)
    ca = SimulatedCluster(inst, placement, routing, pool=pool_a)
    cb = SimulatedCluster(inst, placement, routing, pool=pool_b)
    ref = replay_slot(inst, placement, routing, pool_a, ca.nodes, req, at)
    shr = replay_slot_sharded(
        inst, placement, routing, pool_b, cb.nodes, req, at, region_map,
    )
    return ref, shr, (pool_a, ca), (pool_b, cb)


def _assert_identical(ref, shr, flat_state, shard_state):
    """Full bit-identity: columns, rounds, pool state, node state."""
    pool_a, ca = flat_state
    pool_b, cb = shard_state
    assert (ref is None) == (shr is None)
    if ref is None:
        return
    res = shr.result
    for name in ("request", "start", "finish", "queueing", "cold_start"):
        assert getattr(ref, name).tobytes() == getattr(res, name).tobytes()
    assert ref.rounds == res.rounds == shr.stats.rounds
    assert pool_a._last_used == pool_b._last_used
    assert pool_a.cold_starts == pool_b.cold_starts
    assert pool_a.warm_hits == pool_b.warm_hits
    for na, nb in zip(ca.nodes, cb.nodes):
        assert list(na.core_free) == list(nb.core_free)
        assert na.busy_time == nb.busy_time


# ---------------------------------------------------------------------------
# FIFO kernel
# ---------------------------------------------------------------------------
class TestFifoKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=0, max_value=50),
        cores=st.integers(min_value=1, max_value=3),
        quantize=st.booleans(),
    )
    def test_matches_reference_scan(self, seed, n, cores, quantize):
        """Property: the vectorized kernel reproduces the reference
        core-claiming scan exactly, ties and congestion included."""
        gen = np.random.default_rng(seed)
        base = gen.uniform(0, 5, size=n)
        if quantize:
            base = np.round(base * 2) / 2  # force exact duplicate admits
        admit = np.sort(base)
        work = gen.uniform(0.01, 2.0, size=n)
        ref_starts, ref_free = _fifo_reference(admit, work, cores)
        fast_starts = _fifo_starts(admit, work, cores)
        assert np.array_equal(ref_starts, fast_starts)
        assert ref_free == _core_free_final(fast_starts, work, cores)


# ---------------------------------------------------------------------------
# RegionMap
# ---------------------------------------------------------------------------
class TestRegionMap:
    def test_contiguous_partitions_all_nodes(self):
        rmap = RegionMap.contiguous(10, 3)
        assert rmap.n_nodes == 10
        ids = np.concatenate([rmap.nodes_of(r) for r in range(3)])
        assert sorted(ids.tolist()) == list(range(10))

    def test_from_positions_balanced(self):
        gen = np.random.default_rng(0)
        pos = gen.uniform(0, 100, size=(16, 2))
        rmap = RegionMap.from_positions(pos, 4)
        sizes = [rmap.nodes_of(r).size for r in range(4)]
        assert sum(sizes) == 16
        assert max(sizes) - min(sizes) <= 1

    def test_rejects_out_of_range_ids(self):
        with pytest.raises(ValueError):
            RegionMap(regions=np.array([0, 3]), n_regions=2)

    def test_shard_count_capped_at_nodes(self):
        assert RegionMap.contiguous(3, 8).n_regions == 3


# ---------------------------------------------------------------------------
# Sharded vs flat bit-identity
# ---------------------------------------------------------------------------
class TestShardedEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        n_users=st.integers(min_value=1, max_value=12),
        n_shards=st.integers(min_value=1, max_value=4),
        span=st.floats(min_value=0.5, max_value=30.0),
        cold=st.floats(min_value=0.0, max_value=2.0),
        keep_alive=st.floats(min_value=0.1, max_value=30.0),
        keep=st.sampled_from([1.0, 0.7]),
    )
    def test_bit_identical_to_flat_replay(
        self, seed, n_users, n_shards, span, cold, keep_alive, keep
    ):
        """Property: every committed output of the sharded engine equals
        the flat fixpoint replay bit for bit."""
        inst, placement, routing = _solved(seed, n_users, keep=keep)
        gen = np.random.default_rng(seed)
        at = gen.uniform(0.0, span, size=inst.n_requests)
        serverless = ServerlessConfig(cold_start=cold, keep_alive=keep_alive)
        rmap = RegionMap.contiguous(inst.n_servers, n_shards)
        ref, shr, a, b = _run_pair(
            inst, placement, routing, at, rmap, serverless
        )
        _assert_identical(ref, shr, a, b)

    def test_single_shard_equals_unsharded(self):
        """Edge case: one shard holding everything is the flat engine."""
        inst, placement, routing = _solved(3, 8)
        at = np.random.default_rng(3).uniform(0.0, 10.0, inst.n_requests)
        rmap = RegionMap.contiguous(inst.n_servers, 1)
        ref, shr, a, b = _run_pair(
            inst, placement, routing, at,
            rmap, ServerlessConfig(cold_start=0.5, keep_alive=5.0),
        )
        _assert_identical(ref, shr, a, b)
        assert shr.stats.boundary_invocations == 0

    def test_empty_shard(self):
        """Edge case: a region with no nodes participates harmlessly."""
        inst, placement, routing = _solved(5, 6)
        # region 2 owns no nodes at all
        regions = np.zeros(inst.n_servers, dtype=np.int64)
        regions[inst.n_servers // 2:] = 1
        rmap = RegionMap(regions=regions, n_regions=3)
        at = np.random.default_rng(5).uniform(0.0, 8.0, inst.n_requests)
        ref, shr, a, b = _run_pair(
            inst, placement, routing, at,
            rmap, ServerlessConfig(cold_start=0.5, keep_alive=5.0),
        )
        _assert_identical(ref, shr, a, b)
        assert shr.stats.n_shards == 3

    def test_ping_pong_chain_across_two_shards(self):
        """Edge case: every chain alternates between the two regions, so
        each hop crosses the shard boundary and the exchange rounds must
        carry the whole reconciliation."""
        inst, placement, routing = _solved(7, 6, keep=1.0)
        # host service s only on node s % 2 → chains ping-pong 0↔1
        placement = Placement.full(inst)
        for svc, node in list(placement.pairs()):
            if node != svc % 2:
                placement.remove(svc, node)
        routing = optimal_routing(inst, placement)
        regions = np.zeros(inst.n_servers, dtype=np.int64)
        regions[1] = 1  # nodes 0 and 1 live in different shards
        rmap = RegionMap(regions=regions, n_regions=2)
        at = np.random.default_rng(7).uniform(0.0, 6.0, inst.n_requests)
        ref, shr, a, b = _run_pair(
            inst, placement, routing, at,
            rmap, ServerlessConfig(cold_start=0.5, keep_alive=3.0),
        )
        _assert_identical(ref, shr, a, b)
        # the workload genuinely ping-pongs: most invocations land on a
        # node outside their owner's region
        assert shr.stats.boundary_invocations > 0
        assert shr.stats.ready_values_exchanged > 0
        assert shr.stats.start_values_exchanged > 0

    def test_empty_request_set(self):
        inst, placement, routing = _solved(1, 4)
        rmap = RegionMap.contiguous(inst.n_servers, 2)
        pool = InstancePool(placement, ServerlessConfig())
        cluster = SimulatedCluster(inst, placement, routing, pool=pool)
        out = replay_slot_sharded(
            inst, placement, routing, pool, cluster.nodes,
            np.empty(0, dtype=np.int64), np.empty(0), rmap,
        )
        assert out is not None
        assert out.result.finish.size == 0
        assert out.stats.rounds == 0

    def test_region_map_size_mismatch_raises(self):
        inst, placement, routing = _solved(2, 4)
        pool = InstancePool(placement, ServerlessConfig())
        cluster = SimulatedCluster(inst, placement, routing, pool=pool)
        with pytest.raises(ValueError):
            replay_slot_sharded(
                inst, placement, routing, pool, cluster.nodes,
                np.arange(inst.n_requests),
                np.zeros(inst.n_requests),
                RegionMap.contiguous(inst.n_servers + 1, 2),
            )

# ---------------------------------------------------------------------------
# Multi-slot pool carry-over
# ---------------------------------------------------------------------------
def _multi_slot_digest(engine, n_slots=6, seed=21, n_users=14):
    """Replay a slot sequence on one carried pool and node set; digest
    every committed column and the carried pool/node state, and collect
    per-slot round counts."""
    import hashlib

    inst, placement, routing = _solved(seed, n_users)
    serverless = ServerlessConfig(cold_start=0.5, keep_alive=30.0)
    pool = InstancePool(placement, serverless)
    cluster = SimulatedCluster(inst, placement, routing, pool=pool)
    rmap = RegionMap.contiguous(inst.n_servers, 2)
    gen = np.random.default_rng(seed)
    req = np.arange(inst.n_requests)
    digest = hashlib.sha256()
    rounds = []
    for slot in range(n_slots):
        at = gen.uniform(slot * 12.0, slot * 12.0 + 10.0, inst.n_requests)
        if engine == "flat":
            out = replay_slot(
                inst, placement, routing, pool, cluster.nodes, req, at
            )
        else:
            shr = replay_slot_sharded(
                inst, placement, routing, pool, cluster.nodes, req, at, rmap
            )
            out = shr.result if shr is not None else None
        assert out is not None
        rounds.append(out.rounds)
        for col in (out.finish, out.queueing, out.cold_start):
            digest.update(col.tobytes())
    digest.update(repr(sorted(pool._last_used.items())).encode())
    for nd in cluster.nodes:
        digest.update(repr(list(nd.core_free)).encode())
    return digest.hexdigest(), rounds


def test_multi_slot_sharded_matches_flat():
    """Pool warmth and core clocks carried across slots evolve
    identically under the flat and sharded engines."""
    flat, flat_rounds = _multi_slot_digest("flat")
    sharded, shard_rounds = _multi_slot_digest("sharded")
    assert sharded == flat
    assert shard_rounds == flat_rounds


# ---------------------------------------------------------------------------
# Cluster-level wiring
# ---------------------------------------------------------------------------
class TestClusterWiring:
    def test_partition_cluster_covers_every_node(self):
        inst, placement, routing = _solved(4, 5)
        pool = InstancePool(placement, ServerlessConfig())
        cluster = SimulatedCluster(inst, placement, routing, pool=pool)
        rmap = RegionMap.contiguous(inst.n_servers, 2)
        shards = partition_cluster(cluster.nodes, rmap)
        assert len(shards) == 2
        all_ids = sorted(
            int(v) for s in shards for v in s.node_ids
        )
        assert all_ids == list(range(inst.n_servers))
        # node objects are shared, not copied
        for s in shards:
            for v, nd in zip(s.node_ids, s.nodes):
                assert nd is cluster.nodes[int(v)]

    def test_cluster_replay_uses_sharded_engine(self):
        inst, placement, routing = _solved(6, 8)
        serverless = ServerlessConfig(cold_start=0.5, keep_alive=5.0)
        at = np.random.default_rng(6).uniform(0.0, 10.0, inst.n_requests)
        flat = SimulatedCluster(
            inst, placement, routing, serverless=serverless
        )
        ref = flat.replay(at)
        rmap = RegionMap.contiguous(inst.n_servers, 3)
        sharded = SimulatedCluster(
            inst, placement, routing, serverless=serverless,
            region_map=rmap,
        )
        assert len(sharded.shards) == 3
        res = sharded.replay(at)
        assert ref is not None and res is not None
        assert ref.finish.tobytes() == res.finish.tobytes()
        assert sharded.last_shard_stats is not None
        assert sharded.last_shard_stats.n_shards == 3

    def test_cluster_run_uses_sharded_engine(self):
        """``run()``'s fast path goes through the same engine as
        ``replay()``: a cluster with a region map runs it sharded."""
        inst, placement, routing = _solved(6, 8)
        serverless = ServerlessConfig(cold_start=0.5, keep_alive=5.0)
        at = np.random.default_rng(6).uniform(0.0, 10.0, inst.n_requests)
        arrivals = [(h, float(at[h])) for h in range(inst.n_requests)]
        flat = SimulatedCluster(
            inst, placement, routing, serverless=serverless
        )
        sharded = SimulatedCluster(
            inst, placement, routing, serverless=serverless,
            region_map=RegionMap.contiguous(inst.n_servers, 3),
        )
        ref = flat.run(arrivals=arrivals)
        out = sharded.run(arrivals=arrivals)
        assert flat.last_shard_stats is None
        assert sharded.last_shard_stats is not None
        assert sharded.last_shard_stats.n_shards == 3
        assert flat.queue.processed == sharded.queue.processed == 0
        assert [
            (o.request, o.start, o.finish, o.queueing, o.cold_start)
            for o in out
        ] == [
            (o.request, o.start, o.finish, o.queueing, o.cold_start)
            for o in ref
        ]


# ---------------------------------------------------------------------------
# Simulator-level sharded traces
# ---------------------------------------------------------------------------
def _run_trace(shards, *, seed=7, n_users=18, n_servers=8, slots=4,
               autoscale=False, faults=False, resilience=False,
               fail_prob=0.0):
    """One full online trace through ``OnlineSimulator.run``."""
    from repro.core.online import OnlineSoCL
    from repro.microservices import eshop_application
    from repro.model import ProblemConfig
    from repro.network import stadium_topology
    from repro.runtime.autoscale import Autoscaler
    from repro.runtime.failures import OutageSchedule
    from repro.runtime.resilience import (
        FaultConfig,
        FaultInjector,
        ResiliencePolicy,
    )
    from repro.runtime.simulator import OnlineSimulator
    from repro.workload import WorkloadSpec

    sim = OnlineSimulator(
        stadium_topology(n_servers, seed=seed),
        eshop_application(),
        ProblemConfig(weight=0.5, budget=60.0),
        WorkloadSpec(n_users=n_users, data_scale=5.0),
        seed=seed,
        shards=shards,
        autoscaler=Autoscaler() if autoscale else None,
    )
    inj = (
        FaultInjector(
            FaultConfig(link_fail_prob=0.3, crash_prob=0.3), seed=seed
        )
        if faults
        else None
    )
    outages = (
        OutageSchedule(n_servers, fail_prob=fail_prob, seed=seed)
        if fail_prob
        else None
    )
    return sim.run(
        OnlineSoCL(), n_slots=slots, outages=outages, faults=inj,
        resilience=ResiliencePolicy() if resilience else None,
    )


def _trace_digest(result) -> str:
    """SHA-256 over every deterministic field of a trace outcome: the
    per-slot records (minus the wall-clock ``solver_runtime``/``t_*``
    fields) and the latency recorder's full state."""
    import hashlib

    h = hashlib.sha256()
    for r in result.slots:
        h.update(
            repr((
                r.slot, r.n_requests, r.objective, r.cost,
                r.mean_latency, r.max_latency, r.cold_starts, r.churn,
                r.n_down_nodes, r.n_retries, r.n_hedges, r.n_shed,
                r.n_timeouts, r.n_failed, r.n_provisioned, r.n_warm,
                r.n_scale_ups, r.n_scale_downs, r.n_prewarms,
                r.n_pool_evictions,
            )).encode()
        )
    h.update(result.recorder.slot_means().tobytes())
    h.update(repr(sorted(result.recorder.overall().items())).encode())
    return h.hexdigest()


_TRACE_CASES = {
    "plain": {},
    "autoscaler": {"autoscale": True},
    "outages": {"fail_prob": 0.4},
    "faults": {"faults": True, "resilience": True},
}


@pytest.mark.parametrize("case", sorted(_TRACE_CASES))
@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_trace_matches_flat(shards, case):
    """``OnlineSimulator(shards=k)`` commits the same trace as the flat
    simulator, slot after slot, with the pool carried across slots."""
    kwargs = _TRACE_CASES[case]
    flat = _trace_digest(_run_trace(1, **kwargs))
    assert _trace_digest(_run_trace(shards, **kwargs)) == flat


# ---------------------------------------------------------------------------
# Shard telemetry
# ---------------------------------------------------------------------------


class TestTelemetryBitIdentity:
    """A traced sharded replay emits the ``runtime.shard.*`` counters
    and one ``shard<k>`` span per region; untraced shards allocate no
    telemetry state at all."""

    @staticmethod
    def _traced_replay():
        from repro.obs import Tracer, use_tracer

        inst, placement, routing = _solved(9, 12)
        at = np.random.default_rng(9).uniform(0.0, 12.0, inst.n_requests)
        rmap = RegionMap.contiguous(inst.n_servers, 3)
        req = np.arange(inst.n_requests)
        pool = InstancePool(
            placement, ServerlessConfig(cold_start=0.5, keep_alive=5.0)
        )
        cluster = SimulatedCluster(inst, placement, routing, pool=pool)
        tracer = Tracer("telemetry")
        with use_tracer(tracer):
            shr = replay_slot_sharded(
                inst, placement, routing, pool, cluster.nodes, req, at, rmap,
            )
        assert shr is not None
        return tracer, shr

    @staticmethod
    def _shard_counters(tracer) -> dict:
        return {
            name: value
            for name, value in tracer.counters.items()
            if name.startswith("runtime.shard.")
        }

    def test_serial_emits_shard_counters(self):
        tracer, _ = self._traced_replay()
        counters = self._shard_counters(tracer)
        for key in ("node_sims", "cache_rebuilds", "cache_splices"):
            assert f"runtime.shard.{key}" in counters
        assert counters["runtime.shard.node_sims"] > 0
        # one synthetic subtree per shard with the four protocol phases
        assert [s.name for s in tracer.roots] == ["shard0", "shard1", "shard2"]
        for root in tracer.roots:
            assert [c.name for c in root.children] == [
                "begin", "step_sim", "step_prop", "finalize",
            ]

    def test_untraced_shards_carry_no_telemetry_state(self):
        from repro.runtime.shard import RegionShard, build_shard_slices

        inst, placement, routing = _solved(9, 12)
        at = np.random.default_rng(9).uniform(0.0, 12.0, inst.n_requests)
        pool = InstancePool(
            placement, ServerlessConfig(cold_start=0.5, keep_alive=5.0)
        )
        cluster = SimulatedCluster(inst, placement, routing, pool=pool)
        slices = build_shard_slices(
            inst, placement, routing, pool, cluster.nodes,
            np.arange(inst.n_requests), at,
            RegionMap.contiguous(inst.n_servers, 3),
        )
        assert slices is not None
        # no ambient tracer -> the per-shard counter/phase state is never
        # even allocated, keeping the untraced hot path untouched
        assert all(RegionShard(s)._telemetry is None for s in slices)
