"""Tests for repro.runtime.shard (the fixpoint slot replay engine).

The engine's contract is *bit-identical* equality with the event loop
(``SimulatedCluster(..., fast_replay=False).run``) for any region map —
same committed columns, same pool and node state — and the same
iterates whatever the region map: the same round count and the same
decline decisions.  Every comparison here is exact (``==`` /
``array_equal`` / ``tobytes()``), never approx.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.scenarios import ScenarioParams, build_scenario
from repro.model import Placement, optimal_routing
from repro.runtime import ServerlessConfig, SimulatedCluster
from repro.runtime import shard
from repro.runtime.replay import NODE_CORES
from repro.runtime.serverless import InstancePool
from repro.runtime.shard import (
    RegionMap,
    _core_free_final,
    _fifo_patch,
    _fifo_patch_many,
    _fifo_reference,
    _fifo_starts,
    _lagged_finish_max,
    replay_slot,
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


def _replay(inst, placement, routing, at, region_map, serverless):
    """One slot through the fixpoint on fresh state: (result, cluster)."""
    pool = InstancePool(placement, serverless)
    cluster = SimulatedCluster(inst, placement, routing, pool=pool)
    out = replay_slot_sharded(
        inst, placement, routing, pool, cluster.nodes,
        np.arange(inst.n_requests), at, region_map,
    )
    return out, cluster


def _run_pair(inst, placement, routing, at, region_map, serverless):
    """The same slot through the event loop (the oracle), the fixpoint
    over one region and the fixpoint over ``region_map``, each on fresh
    state."""
    oracle = SimulatedCluster(
        inst, placement, routing, serverless=serverless, fast_replay=False
    )
    oracle.run(arrivals=[(h, float(t)) for h, t in enumerate(at)])
    one = _replay(
        inst, placement, routing, at,
        RegionMap.contiguous(inst.n_servers, 1), serverless,
    )
    shr = _replay(inst, placement, routing, at, region_map, serverless)
    return oracle, one, shr


def _assert_identical(oracle, one, shr):
    """Full bit-identity with the event loop (columns, pool state, node
    state) and region-map independence (declines, rounds)."""
    (res_one, _), (out, cluster) = one, shr
    assert (res_one is None) == (out is None)
    if out is None:
        return None
    assert res_one.stats.rounds == out.stats.rounds == out.result.rounds
    res = out.result
    outcomes = oracle.outcomes
    assert res.request.tolist() == [o.request for o in outcomes]
    for name in ("start", "finish", "queueing", "cold_start"):
        want = np.array([getattr(o, name) for o in outcomes])
        assert np.array_equal(getattr(res, name), want), name
    assert np.array_equal(
        cluster.pool.last_used, oracle.pool.last_used, equal_nan=True
    )
    assert np.array_equal(cluster.pool.provisioned, oracle.pool.provisioned)
    assert cluster.pool.cold_starts == oracle.pool.cold_starts
    assert cluster.pool.warm_hits == oracle.pool.warm_hits
    for na, nb in zip(oracle.nodes, cluster.nodes):
        assert list(na.core_free) == list(nb.core_free)
        assert na.busy_time == nb.busy_time
    return out


# ---------------------------------------------------------------------------
# FIFO kernel
# ---------------------------------------------------------------------------
def _heap_scan(admit, work, cores):
    """The event loop's claim rule as a plain heap scan: each job takes
    the earliest-free core, ties to the lowest core index."""
    heap = [(0.0, c) for c in range(cores)]
    free = [0.0] * cores
    starts = []
    for a, w in zip(admit.tolist(), work.tolist()):
        x, c = heapq.heappop(heap)
        st = a if a > x else x
        heapq.heappush(heap, (st + w, c))
        free[c] = st + w
        starts.append(st)
    return np.array(starts, dtype=np.float64), free


class TestFifoKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=0, max_value=400),
        quantize=st.booleans(),
        load=st.sampled_from([0.3, 0.9, 3.0]),
        warm=st.booleans(),
        block=st.sampled_from([16, shard.FIFO_BLOCK]),
    )
    def test_matches_reference_scan(
        self, seed, n, quantize, load, warm, block
    ):
        """Property: the scalar two-core scan and the vectorized kernel
        reproduce a plain heap scan over two cores exactly —
        ties, light load, and saturated cascades deeper than the sweep
        cap included — from a cold or an arbitrary warm start, in one
        block or many."""
        gen = np.random.default_rng(seed)
        # ten arrivals per time unit; ``load`` is the offered utilization
        base = gen.uniform(0, n / 10.0, size=n)
        if quantize:
            base = np.round(base * 2) / 2  # force exact duplicate admits
        admit = np.sort(base)
        work = gen.uniform(0.0, 0.2 * load * NODE_CORES, size=n)
        want_starts, want_free = _heap_scan(admit, work, NODE_CORES)
        ref_starts, ref_free = _fifo_reference(admit, work)
        assert ref_starts.tobytes() == want_starts.tobytes()
        assert ref_free == want_free
        init = admit + gen.uniform(0, 1, size=n) if warm else None
        default_block = shard.FIFO_BLOCK
        shard.FIFO_BLOCK = block
        try:
            fast_starts = _fifo_starts(admit, work, init)
        finally:
            shard.FIFO_BLOCK = default_block
        assert fast_starts.tobytes() == want_starts.tobytes()
        assert _core_free_final(fast_starts, work) == want_free

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=600),
        n_spans=st.integers(min_value=1, max_value=12),
        quantize=st.booleans(),
        load=st.sampled_from([0.3, 0.9, 3.0]),
        many=st.booleans(),
    )
    def test_patch_matches_reference_scan(
        self, seed, n, n_spans, quantize, load, many
    ):
        """Property: patching the old schedule around spans of changed
        admits gives the scan of the new admits byte for byte, and the
        positions it returns are exactly the starts that moved.  On a
        budget overrun (``None``) the warm blocked solve from the first
        span gives the scan instead."""
        gen = np.random.default_rng(seed)
        base = gen.uniform(0, n / 10.0, size=n)
        if quantize:
            base = np.round(base * 2) / 2
        admit = np.sort(base)
        work = gen.uniform(0.0, 0.2 * load * NODE_CORES, size=n)
        old, _ = _fifo_reference(admit, work)
        # disjoint ascending spans: distinct heads, each span ending
        # before the next head
        span_lo = np.sort(gen.choice(n, size=min(n_spans, n), replace=False))
        room = np.append(span_lo[1:], n) - span_lo
        span_hi = span_lo + (gen.random(span_lo.size) * room).astype(np.int64)
        new = admit.copy()
        for lo, hi in zip(span_lo.tolist(), span_hi.tolist()):
            delta = gen.uniform(-0.5, 0.5, size=hi - lo + 1)
            if quantize:
                delta = np.round(delta * 2) / 2  # some admits stay put
            new[lo : hi + 1] = np.maximum(admit[lo : hi + 1] + delta, 0.0)
        want, _ = _fifo_reference(new, work)
        starts = old.copy()
        P = _lagged_finish_max(old, work)
        patch = _fifo_patch_many if many else _fifo_patch
        changed = patch(new, work, starts, P, span_lo, span_hi)
        if changed is None:
            starts = _fifo_starts(new, work, starts, int(span_lo[0]))
        else:
            moved = np.nonzero(want != old)[0]
            assert np.unique(np.asarray(changed, dtype=np.int64)).tolist() == (
                moved.tolist()
            )
            # P[n] seeds no walk and is left alone
            assert P[:n].tobytes() == _lagged_finish_max(want, work)[:n].tobytes()
        assert starts.tobytes() == want.tobytes()

    @pytest.mark.parametrize("patch", [_fifo_patch, _fifo_patch_many])
    def test_saturated_patch_overruns_then_warm_solve_is_exact(self, patch):
        """Edge case: on a saturated node (every admit 0) a change at
        position 0 moves every later start, so the walk overruns its
        budget and returns ``None``.  What it wrote is already final,
        and the warm blocked solve from the span head gives the scan."""
        n = 3000
        admit = np.zeros(n)
        work = np.random.default_rng(0).uniform(0.5, 1.5, size=n)
        old, _ = _fifo_reference(admit, work)
        new = admit.copy()
        new[0] = 0.25
        want, _ = _fifo_reference(new, work)
        starts = old.copy()
        P = _lagged_finish_max(old, work)
        span_lo = span_hi = np.zeros(1, dtype=np.int64)
        assert patch(new, work, starts, P, span_lo, span_hi) is None
        written = starts != old
        assert written.any()
        assert starts[written].tobytes() == want[written].tobytes()
        resumed = _fifo_starts(new, work, starts, int(span_lo[0]))
        assert resumed.tobytes() == want.tobytes()


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
        the event loop's bit for bit, in the same rounds as one region."""
        inst, placement, routing = _solved(seed, n_users, keep=keep)
        gen = np.random.default_rng(seed)
        at = gen.uniform(0.0, span, size=inst.n_requests)
        serverless = ServerlessConfig(cold_start=cold, keep_alive=keep_alive)
        rmap = RegionMap.contiguous(inst.n_servers, n_shards)
        _assert_identical(
            *_run_pair(inst, placement, routing, at, rmap, serverless)
        )

    def test_single_shard_equals_unsharded(self):
        """Edge case: ``replay_slot`` is the one-region engine, with no
        boundary traffic."""
        inst, placement, routing = _solved(3, 8)
        at = np.random.default_rng(3).uniform(0.0, 10.0, inst.n_requests)
        serverless = ServerlessConfig(cold_start=0.5, keep_alive=5.0)
        rmap = RegionMap.contiguous(inst.n_servers, 1)
        out = _assert_identical(
            *_run_pair(inst, placement, routing, at, rmap, serverless)
        )
        assert out is not None
        assert out.stats.boundary_invocations == 0
        pool = InstancePool(placement, serverless)
        cluster = SimulatedCluster(inst, placement, routing, pool=pool)
        res = replay_slot(
            inst, placement, routing, pool, cluster.nodes,
            np.arange(inst.n_requests), at,
        )
        assert res is not None and res.rounds == out.stats.rounds
        for name in ("finish", "queueing", "cold_start"):
            assert getattr(res, name).tobytes() == (
                getattr(out.result, name).tobytes()
            )

    def test_empty_shard(self):
        """Edge case: a region with no nodes participates harmlessly."""
        inst, placement, routing = _solved(5, 6)
        # region 2 owns no nodes at all
        regions = np.zeros(inst.n_servers, dtype=np.int64)
        regions[inst.n_servers // 2:] = 1
        rmap = RegionMap(regions=regions, n_regions=3)
        at = np.random.default_rng(5).uniform(0.0, 8.0, inst.n_requests)
        out = _assert_identical(*_run_pair(
            inst, placement, routing, at,
            rmap, ServerlessConfig(cold_start=0.5, keep_alive=5.0),
        ))
        assert out is not None
        assert out.stats.n_shards == 3

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
        out = _assert_identical(*_run_pair(
            inst, placement, routing, at,
            rmap, ServerlessConfig(cold_start=0.5, keep_alive=3.0),
        ))
        assert out is not None
        # the workload genuinely ping-pongs: most invocations land on a
        # node outside their owner's region
        assert out.stats.boundary_invocations > 0
        assert out.stats.ready_values_exchanged > 0
        assert out.stats.start_values_exchanged > 0

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_congested_slot_matches_event_loop(self, n_shards, monkeypatch):
        """A congested slot whose nodes hold >= 32 invocations, so the
        vectorized FIFO solve and the incremental splice/patch paths
        run, over several rounds, and still equal the event loop.  The
        size rule's threshold is lowered below the node sizes, so these
        nodes splice; at the default only nodes above ``FIFO_BLOCK``
        invocations do (``test_size_rule_splices_only_large_nodes``)."""
        from repro.obs import Tracer, use_tracer
        from repro.runtime.replay import build_replay_plan

        monkeypatch.setattr(shard, "FIFO_BLOCK", 16)

        inst, placement, routing = _solved(1, 100)
        at = np.random.default_rng(1).uniform(0.0, 10.0, inst.n_requests)
        serverless = ServerlessConfig(cold_start=0.5, keep_alive=5.0)
        plan = build_replay_plan(
            inst, placement, routing, InstancePool(placement, serverless),
            SimulatedCluster(inst, placement, routing).nodes,
            np.arange(inst.n_requests), at,
        )
        assert np.bincount(plan.v_edge).max() >= 32
        rmap = RegionMap.contiguous(inst.n_servers, n_shards)
        tracer = Tracer("congested")
        with use_tracer(tracer):
            out = _assert_identical(
                *_run_pair(inst, placement, routing, at, rmap, serverless)
            )
        assert out is not None
        assert out.stats.rounds > 1
        assert tracer.counters["runtime.shard.cache_splices"] > 0

    def test_size_rule_splices_only_large_nodes(self, monkeypatch):
        """At the default threshold a node with at most ``FIFO_BLOCK``
        invocations rebuilds on every re-simulation and a larger node
        splices; both equal the event loop, and the same slot with every
        node rebuilding gives identical outputs."""
        from repro.obs import Tracer, use_tracer
        from repro.runtime.shard import RegionShard

        inst, placement, routing = _solved(2, 2400, n_servers=3)
        placement = Placement(np.zeros_like(placement.matrix))
        for svc in inst.requested_services.tolist():
            placement.add(svc, 0)
        placement.add(int(inst.requested_services[0]), 1)
        routing = optimal_routing(inst, placement)
        at = np.random.default_rng(2).uniform(0.0, 60.0, inst.n_requests)
        serverless = ServerlessConfig(cold_start=0.5, keep_alive=5.0)
        sims = []
        sim_node = RegionShard._sim_node

        def spy(self, v, idx, chpos):
            before = self._telemetry.counters["cache_splices"]
            sim_node(self, v, idx, chpos)
            sims.append((idx.size, self._telemetry.counters["cache_splices"] > before))

        monkeypatch.setattr(RegionShard, "_sim_node", spy)
        with use_tracer(Tracer("size-rule")) as tracer:
            out = _assert_identical(*_run_pair(
                inst, placement, routing, at,
                RegionMap.contiguous(inst.n_servers, 1), serverless,
            ))
        assert out is not None and out.stats.rounds > 1
        sizes = {n for n, _ in sims}
        assert min(sizes) <= shard.FIFO_BLOCK < max(sizes)
        assert all(n > shard.FIFO_BLOCK for n, spliced in sims if spliced)
        assert any(spliced for _, spliced in sims)
        assert tracer.counters["runtime.shard.cache_splices"] > 0
        # the same slot with every node rebuilding
        monkeypatch.setattr(shard, "FIFO_BLOCK", max(sizes))
        with use_tracer(Tracer("rebuild-only")) as tracer:
            full, _ = _replay(
                inst, placement, routing, at,
                RegionMap.contiguous(inst.n_servers, 1), serverless,
            )
        assert tracer.counters["runtime.shard.cache_splices"] == 0
        for name in ("start", "finish", "queueing", "cold_start"):
            assert np.array_equal(getattr(full.result, name), getattr(out.result, name))

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
    """Replay a slot sequence on one carried pool, a fresh cluster per
    slot as ``OnlineSimulator`` does; digest every committed column, each
    slot's node state and the carried pool state, and collect per-slot
    round counts.  ``engine`` is ``"event"`` for the event loop or a
    region count for the fixpoint."""
    import hashlib

    inst, placement, routing = _solved(seed, n_users)
    serverless = ServerlessConfig(cold_start=0.5, keep_alive=30.0)
    pool = InstancePool(placement, serverless)
    gen = np.random.default_rng(seed)
    req = np.arange(inst.n_requests)
    digest = hashlib.sha256()
    rounds = []
    for slot in range(n_slots):
        at = gen.uniform(slot * 12.0, slot * 12.0 + 10.0, inst.n_requests)
        if engine == "event":
            cluster = SimulatedCluster(
                inst, placement, routing, pool=pool, fast_replay=False
            )
            outcomes = cluster.run(
                arrivals=[(h, float(t)) for h, t in enumerate(at)]
            )
            cols = [
                np.array([getattr(o, name) for o in outcomes])
                for name in ("finish", "queueing", "cold_start")
            ]
        else:
            cluster = SimulatedCluster(inst, placement, routing, pool=pool)
            rmap = RegionMap.contiguous(inst.n_servers, engine)
            shr = replay_slot_sharded(
                inst, placement, routing, pool, cluster.nodes, req, at, rmap
            )
            assert shr is not None
            rounds.append(shr.result.rounds)
            cols = [shr.result.finish, shr.result.queueing,
                    shr.result.cold_start]
        for col in cols:
            digest.update(col.tobytes())
        # float() so the event loop's NumPy scalars and the fixpoint's
        # Python floats digest alike
        for nd in cluster.nodes:
            state = [float(x) for x in nd.core_free] + [float(nd.busy_time)]
            digest.update(repr(state).encode())
    digest.update(pool.provisioned.tobytes())
    digest.update(pool.last_used.tobytes())
    digest.update(repr((pool.cold_starts, pool.warm_hits)).encode())
    return digest.hexdigest(), rounds


def test_multi_slot_sharded_matches_flat():
    """Pool warmth carried across slots evolves identically under the
    event loop and the fixpoint over one and two regions, in the same
    rounds whatever the region count."""
    oracle, _ = _multi_slot_digest("event")
    one, one_rounds = _multi_slot_digest(1)
    two, two_rounds = _multi_slot_digest(2)
    assert one == two == oracle
    assert one_rounds == two_rounds


# ---------------------------------------------------------------------------
# Cluster-level wiring
# ---------------------------------------------------------------------------
class TestClusterWiring:
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
        assert flat.events_processed == sharded.events_processed == 0
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
               fail_prob=0.0, fast_replay=True):
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
        fast_replay=fast_replay,
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
    """``OnlineSimulator(shards=k)`` commits the same trace as the event
    loop, slot after slot, with the pool carried across slots."""
    kwargs = _TRACE_CASES[case]
    oracle = _trace_digest(_run_trace(1, fast_replay=False, **kwargs))
    assert _trace_digest(_run_trace(shards, **kwargs)) == oracle


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

    @pytest.mark.usefixtures("per_user_stream")
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
