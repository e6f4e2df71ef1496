"""Tests for repro.runtime.resilience and its runtime integration.

Covers the fault injector (determinism, slot-addressability), the
policy knobs (validation, timeout/backoff math, shed ordering), the
cluster-level fault handling (retry → hedge → fail, timeouts), the
online-simulator wiring (counters, determinism) and — most importantly
— the bit-identity contract: with no injector and no policy the
runtime behaves exactly as it did before the resilience layer existed.
"""

import hashlib

import numpy as np
import pytest

from repro.core import SoCL
from repro.core.online import OnlineSoCL
from repro.microservices import eshop_application
from repro.model import Placement, ProblemConfig, optimal_routing
from repro.network import grid_topology, stadium_topology
from repro.runtime import (
    FaultConfig,
    FaultInjector,
    OnlineSimulator,
    ResiliencePolicy,
    ServerlessConfig,
    SimulatedCluster,
    SlotFaults,
    shed_indices,
)
from repro.workload import WorkloadSpec


@pytest.fixture
def solved_tiny(tiny_instance):
    placement = Placement.full(tiny_instance)
    routing = optimal_routing(tiny_instance, placement)
    return placement, routing


@pytest.fixture
def sim_components():
    network = grid_topology(3, 3, seed=3)
    app = eshop_application()
    config = ProblemConfig(weight=0.5, budget=6000.0)
    spec = WorkloadSpec(n_users=15)
    return network, app, config, spec


class TestFaultConfig:
    def test_defaults_draw_nothing(self):
        cfg = FaultConfig()
        assert cfg.link_fail_prob == 0.0
        assert cfg.crash_prob == 0.0

    def test_at_intensity(self):
        cfg = FaultConfig.at_intensity(0.4)
        assert cfg.crash_prob == pytest.approx(0.4)
        assert cfg.link_fail_prob == pytest.approx(0.2)

    def test_at_intensity_zero_is_inert(self, solved_tiny):
        placement, _ = solved_tiny
        inj = FaultInjector(FaultConfig.at_intensity(0.0), seed=3)
        faults = inj.for_slot(0, placement, 300.0)
        assert faults.n_degraded_links == 0
        assert faults.n_crashes == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"link_fail_prob": -0.1},
            {"link_fail_prob": 1.5},
            {"crash_prob": 2.0},
            {"link_slowdown": 0.5},
            {"restart_delay": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FaultConfig(**kwargs)

    def test_at_intensity_validates(self):
        with pytest.raises(ValueError):
            FaultConfig.at_intensity(1.5)


class TestFaultInjector:
    def test_deterministic(self, solved_tiny):
        placement, _ = solved_tiny
        cfg = FaultConfig(link_fail_prob=0.5, crash_prob=0.5)
        a = FaultInjector(cfg, seed=7).for_slot(2, placement, 300.0)
        b = FaultInjector(cfg, seed=7).for_slot(2, placement, 300.0)
        assert a.degraded_links == b.degraded_links
        assert a.crashes == b.crashes

    def test_slot_addressable(self, solved_tiny):
        """Slot t's realization does not depend on earlier slots having
        been drawn — the stream is addressed by (seed, slot)."""
        placement, _ = solved_tiny
        cfg = FaultConfig(link_fail_prob=0.5, crash_prob=0.5)
        fresh = FaultInjector(cfg, seed=7).for_slot(5, placement, 300.0)
        warmed = FaultInjector(cfg, seed=7)
        for t in range(5):
            warmed.for_slot(t, placement, 300.0)
        again = warmed.for_slot(5, placement, 300.0)
        assert fresh.degraded_links == again.degraded_links
        assert fresh.crashes == again.crashes

    def test_slots_differ(self, solved_tiny):
        placement, _ = solved_tiny
        cfg = FaultConfig(link_fail_prob=0.5, crash_prob=0.5)
        inj = FaultInjector(cfg, seed=7)
        draws = [inj.for_slot(t, placement, 300.0) for t in range(6)]
        assert len({frozenset(d.crashes.items()) for d in draws}) > 1

    def test_crash_times_in_horizon(self, solved_tiny):
        placement, _ = solved_tiny
        inj = FaultInjector(FaultConfig(crash_prob=1.0), seed=0)
        faults = inj.for_slot(0, placement, 250.0)
        assert faults.n_crashes == len(placement.pairs())
        assert all(0.0 <= t < 250.0 for t in faults.crashes.values())

    def test_crashes_only_on_placed_pairs(self, solved_tiny):
        placement, _ = solved_tiny
        inj = FaultInjector(FaultConfig(crash_prob=1.0), seed=0)
        faults = inj.for_slot(0, placement, 300.0)
        assert set(faults.crashes) <= set(placement.pairs())

    def test_validates_arguments(self, solved_tiny):
        placement, _ = solved_tiny
        inj = FaultInjector()
        with pytest.raises(ValueError):
            inj.for_slot(-1, placement, 300.0)
        with pytest.raises(ValueError):
            inj.for_slot(0, placement, 0.0)


class TestSlotFaults:
    def _faults(self, n=4, links=((0, 1),), crashes=None):
        return SlotFaults(
            FaultConfig(link_fail_prob=0.5, link_slowdown=4.0, restart_delay=10.0),
            n, frozenset(links), crashes or {},
        )

    def test_link_factor_symmetric(self):
        f = self._faults()
        assert f.link_factor(0, 1) == 4.0
        assert f.link_factor(1, 0) == 4.0
        assert f.link_factor(0, 2) == 1.0

    def test_link_factor_same_node_and_cloud(self):
        f = self._faults(n=4, links=((0, 1), (2, 3)))
        assert f.link_factor(1, 1) == 1.0
        assert f.link_factor(0, 4) == 1.0  # index >= n_edge_nodes → cloud

    def test_link_factor_table_matches_link_factor(self):
        f = self._faults(n=4, links=((0, 1), (2, 3)))
        table = f.link_factors
        assert len(table) == 5  # four edge nodes plus the cloud
        for u in range(5):
            for v in range(5):
                assert table[u][v] == f.link_factor(u, v)

    def test_crashed_window(self):
        f = self._faults(crashes={(1, 0): 5.0})
        assert not f.crashed(1, 0, 4.9)
        assert f.crashed(1, 0, 5.0)
        assert f.crashed(1, 0, 14.9)
        assert not f.crashed(1, 0, 15.0)  # restarted
        assert not f.crashed(0, 0, 6.0)  # different service


class TestResiliencePolicy:
    def test_timeout_for(self):
        p = ResiliencePolicy(timeout_factor=3.0, default_timeout=120.0)
        assert p.timeout_for(2.0) == pytest.approx(6.0)
        assert p.timeout_for(np.inf) == 120.0

    def test_backoff_grows_exponentially(self):
        p = ResiliencePolicy(backoff_base=0.05, backoff_factor=2.0)
        assert p.backoff(0) == pytest.approx(0.05)
        assert p.backoff(1) == pytest.approx(0.10)
        assert p.backoff(3) == pytest.approx(0.40)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base": 0.0},
            {"backoff_factor": 0.5},
            {"timeout_factor": 0.0},
            {"default_timeout": -5.0},
            {"shed_utilization": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ResiliencePolicy(**kwargs)


class TestShedIndices:
    # tiny_instance per-request work (Σ chain service_compute):
    # h=0 → 4.5, h=1 → 3.0, h=2 → 4.5, h=3 → 3.5 ; total 15.5

    def test_no_shedding_when_capacity_ample(self, tiny_instance):
        shed = shed_indices(tiny_instance, ResiliencePolicy(), 1e9)
        assert shed.size == 0

    def test_sheds_least_urgent_heaviest_first(self, tiny_instance):
        # budget = 1.5 × 9 = 13.5 < 15.5 → drop exactly the heaviest,
        # highest-index request (h=2, work 4.5)
        shed = shed_indices(tiny_instance, ResiliencePolicy(), 9.0)
        assert shed.tolist() == [2]

    def test_sheds_more_under_tighter_capacity(self, tiny_instance):
        # budget = 7.5 → drop h=2 then h=0 (ties broken by index)
        shed = shed_indices(tiny_instance, ResiliencePolicy(), 5.0)
        assert shed.tolist() == [0, 2]

    def test_disabled_policy_never_sheds(self, tiny_instance):
        policy = ResiliencePolicy(shedding=False)
        assert shed_indices(tiny_instance, policy, 1e-6).size == 0

    def test_deterministic(self, tiny_instance):
        a = shed_indices(tiny_instance, ResiliencePolicy(), 5.0)
        b = shed_indices(tiny_instance, ResiliencePolicy(), 5.0)
        assert np.array_equal(a, b)

    def test_validates_capacity(self, tiny_instance):
        with pytest.raises(ValueError):
            shed_indices(tiny_instance, ResiliencePolicy(), 0.0)


def _crash_first_hop(instance, routing, h, restart_delay=1e9):
    """SlotFaults with request h's first-hop instance crashed at t=0."""
    req = instance.requests[h]
    nodes = routing.nodes_for(h)
    pair = (int(req.chain[0]), int(nodes[0]))
    cfg = FaultConfig(crash_prob=0.5, restart_delay=restart_delay)
    return pair, SlotFaults(cfg, instance.n_servers, frozenset(), {pair: 0.0})


class TestClusterFaultHandling:
    def test_crash_without_policy_is_hard_failure(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        _, faults = _crash_first_hop(tiny_instance, routing, 0)
        cluster = SimulatedCluster(
            tiny_instance, placement, routing,
            serverless=ServerlessConfig(cold_start=0.0), faults=faults,
        )
        outcomes = cluster.run()
        victim = outcomes[0]
        assert victim.status == "failed"
        assert not victim.done

    def test_retry_succeeds_after_restart(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        # restart completes before the first backoff expires → one retry
        _, faults = _crash_first_hop(tiny_instance, routing, 0, restart_delay=0.01)
        policy = ResiliencePolicy(backoff_base=0.05)
        cluster = SimulatedCluster(
            tiny_instance, placement, routing,
            serverless=ServerlessConfig(cold_start=0.0),
            faults=faults, policy=policy,
        )
        outcomes = cluster.run()
        victim = outcomes[0]
        assert victim.done and victim.status == "ok"
        assert victim.retries >= 1
        assert victim.hedges == 0

    def test_hedge_reroutes_off_dead_instance(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        # instance never restarts → retries exhaust, hedging takes over
        pair, faults = _crash_first_hop(tiny_instance, routing, 0)
        cluster = SimulatedCluster(
            tiny_instance, placement, routing,
            serverless=ServerlessConfig(cold_start=0.0),
            faults=faults, policy=ResiliencePolicy(max_retries=1),
        )
        outcomes = cluster.run()
        victim = outcomes[0]
        assert victim.done and victim.status == "ok"
        assert victim.retries == 1
        assert victim.hedges >= 1
        # the live placement lost the crashed pair
        assert not cluster._live_placement.has(*pair)

    def test_hedging_disabled_fails_after_retries(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        _, faults = _crash_first_hop(tiny_instance, routing, 0)
        cluster = SimulatedCluster(
            tiny_instance, placement, routing,
            serverless=ServerlessConfig(cold_start=0.0),
            faults=faults,
            policy=ResiliencePolicy(max_retries=1, hedging=False),
        )
        outcomes = cluster.run()
        assert outcomes[0].status == "failed"
        assert outcomes[0].retries == 1

    def test_timeout_abandons_slow_request(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        policy = ResiliencePolicy(default_timeout=1e-9)
        cluster = SimulatedCluster(
            tiny_instance, placement, routing,
            serverless=ServerlessConfig(cold_start=0.0), policy=policy,
        )
        outcomes = cluster.run()
        assert all(o.status == "timeout" for o in outcomes)
        assert all(not o.done for o in outcomes)

    @staticmethod
    def _single(instance, solved, policy, until=None):
        placement, routing = solved
        cluster = SimulatedCluster(
            instance, placement, routing,
            serverless=ServerlessConfig(cold_start=0.0), policy=policy,
        )
        return cluster.run(arrivals=[(0, 0.0)], until=until)[0]

    def test_timeout_tie_beats_finish(self, tiny_instance, solved_tiny):
        # request 0 arrives at 0, so a timeout equal to its latency is
        # due exactly when it would finish: the timeout wins the tie
        latency = self._single(
            tiny_instance, solved_tiny, ResiliencePolicy()
        ).latency
        assert 0.0 < latency < 120.0
        tied = self._single(
            tiny_instance, solved_tiny,
            ResiliencePolicy(default_timeout=latency),
        )
        assert tied.status == "timeout" and np.isnan(tied.finish)
        later = self._single(
            tiny_instance, solved_tiny,
            ResiliencePolicy(default_timeout=np.nextafter(latency, np.inf)),
        )
        assert later.status == "ok" and later.latency == latency

    def test_timeout_due_before_horizon(self, tiny_instance, solved_tiny):
        # request 0's return leg covers 0.8-0.9 of its latency: the
        # timeout falls due inside the horizon, the next hop after it
        latency = self._single(
            tiny_instance, solved_tiny, ResiliencePolicy()
        ).latency
        out = self._single(
            tiny_instance, solved_tiny,
            ResiliencePolicy(default_timeout=0.8 * latency),
            until=0.9 * latency,
        )
        assert out.status == "timeout" and not out.done

    def test_finished_request_never_times_out(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        cluster = SimulatedCluster(
            tiny_instance, placement, routing,
            serverless=ServerlessConfig(cold_start=0.0),
            policy=ResiliencePolicy(),  # generous 120 s default
        )
        outcomes = cluster.run()
        assert all(o.done and o.status == "ok" for o in outcomes)
        cluster.run(arrivals=[], until=1000.0)  # past every due time
        cluster.run(arrivals=[])
        assert all(o.done and o.status == "ok" for o in outcomes)

    def test_shed_records_without_dispatch(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        cluster = SimulatedCluster(tiny_instance, placement, routing)
        out = cluster.shed(1, at=2.0)
        assert out.status == "shed" and not out.done
        cluster.run(arrivals=[(0, 0.0)])
        assert sum(o.done for o in cluster.outcomes) == 1

    def test_degraded_link_slows_transfers(self, tiny_instance, solved_tiny):
        placement, routing = solved_tiny
        cfg = FaultConfig(link_fail_prob=0.5, link_slowdown=8.0)
        all_pairs = frozenset(
            (u, v)
            for u in range(tiny_instance.n_servers)
            for v in range(u + 1, tiny_instance.n_servers)
        )
        degraded = SlotFaults(cfg, tiny_instance.n_servers, all_pairs, {})

        def mean_latency(faults):
            c = SimulatedCluster(
                tiny_instance, placement, routing,
                serverless=ServerlessConfig(cold_start=0.0), faults=faults,
            )
            arrivals = [(h, 1000.0 * h) for h in range(tiny_instance.n_requests)]
            return np.mean([o.latency for o in c.run(arrivals=arrivals)])

        assert mean_latency(degraded) > mean_latency(None)


class TestSimulatorIntegration:
    INTENSE = FaultConfig(crash_prob=0.6, link_fail_prob=0.3, restart_delay=1e9)

    def test_no_policy_hard_failures(self, sim_components):
        net, app, cfg, spec = sim_components
        sim = OnlineSimulator(net, app, cfg, spec, seed=0)
        res = sim.run(
            SoCL(), n_slots=3, faults=FaultInjector(self.INTENSE, seed=1)
        )
        assert sum(r.n_failed for r in res.slots) > 0
        assert res.completion_rate < 1.0

    def test_policy_absorbs_failures(self, sim_components):
        net, app, cfg, spec = sim_components
        sim = OnlineSimulator(net, app, cfg, spec, seed=0)
        res = sim.run(
            SoCL(), n_slots=3,
            faults=FaultInjector(self.INTENSE, seed=1),
            resilience=ResiliencePolicy(),
        )
        assert sum(r.n_retries for r in res.slots) > 0
        assert sum(r.n_hedges for r in res.slots) > 0
        assert sum(r.n_failed for r in res.slots) == 0
        assert res.completion_rate > 0.9

    def test_deterministic_under_faults(self, sim_components):
        net, app, cfg, spec = sim_components

        def run():
            sim = OnlineSimulator(net, app, cfg, spec, seed=4)
            return sim.run(
                SoCL(), n_slots=2,
                faults=FaultInjector(self.INTENSE, seed=2),
                resilience=ResiliencePolicy(),
            )

        a, b = run(), run()
        assert a.mean_delay == pytest.approx(b.mean_delay)
        assert a.completion_rate == b.completion_rate
        assert [r.n_retries for r in a.slots] == [r.n_retries for r in b.slots]
        assert [r.n_hedges for r in a.slots] == [r.n_hedges for r in b.slots]

    def test_counters_flow_through_tracer(self, sim_components):
        from repro.obs import Tracer, use_tracer

        net, app, cfg, spec = sim_components
        sim = OnlineSimulator(net, app, cfg, spec, seed=0)
        tracer = Tracer("resilience-test")
        with use_tracer(tracer):
            sim.run(
                SoCL(), n_slots=2,
                faults=FaultInjector(self.INTENSE, seed=1),
                resilience=ResiliencePolicy(),
            )
        counters = tracer.counters
        assert counters.get("runtime.instance_crashes", 0) > 0
        for name in ("runtime.retries", "runtime.hedges",
                     "runtime.shed", "runtime.timeouts", "runtime.failed"):
            assert name in counters

    def test_p99_property(self, sim_components):
        net, app, cfg, spec = sim_components
        sim = OnlineSimulator(net, app, cfg, spec, seed=0)
        res = sim.run(SoCL(), n_slots=2)
        assert res.p99_delay >= res.mean_delay
        assert res.completion_rate == 1.0


class TestBitIdentityWhenDisabled:
    """The acceptance contract: fault injection off ⇒ outputs identical
    to a run that never heard of the resilience layer."""

    def _run(self, sim_components, **kwargs):
        net, app, cfg, spec = sim_components
        sim = OnlineSimulator(net, app, cfg, spec, seed=11)
        return sim.run(SoCL(), n_slots=3, **kwargs)

    def test_zero_intensity_injector_is_bit_identical(self, sim_components):
        base = self._run(sim_components)
        inert = self._run(
            sim_components, faults=FaultInjector(FaultConfig.at_intensity(0.0))
        )
        assert [r.objective for r in base.slots] == [r.objective for r in inert.slots]
        assert np.array_equal(
            base.recorder.all_latencies(), inert.recorder.all_latencies()
        )

    def test_policy_without_faults_is_bit_identical(self, sim_components):
        base = self._run(sim_components)
        guarded = self._run(sim_components, resilience=ResiliencePolicy())
        assert [r.objective for r in base.slots] == [r.objective for r in guarded.slots]
        assert np.array_equal(
            base.recorder.all_latencies(), guarded.recorder.all_latencies()
        )
        # policy armed but never triggered: counters all zero
        for rec in guarded.slots:
            assert rec.n_retries == rec.n_hedges == 0
            assert rec.n_shed == rec.n_timeouts == rec.n_failed == 0

    def test_disabled_slot_records_stay_zero(self, sim_components):
        base = self._run(sim_components)
        for rec in base.slots:
            assert rec.n_retries == rec.n_hedges == 0
            assert rec.n_shed == rec.n_timeouts == rec.n_failed == 0


@pytest.mark.usefixtures("per_user_stream")
class TestFaultPathGolden:
    """Recorded per-request outcomes of the discrete-event loop.

    The event loop is the oracle every fixpoint digest suite compares
    against, so a change to the loop itself cannot be checked against
    the loop.  These SHA-256 digests pin its per-request
    ``(request, start, finish, queueing, cold_start, retries, hedges,
    status)`` tuples on small seeded ``OnlineSimulator`` runs, one per
    branch of the fault path, plus one congested fault-free run.  Each
    scenario also asserts that the counter it is named for is non-zero,
    so the pin really covers that branch.  Requests come from the frozen
    per-user stream (``per_user_stream``).
    """

    GOLDEN = {
        "retry_hedge": (
            "6e1ff854ace965c09a0538d196aff7e2"
            "6d38827dfd7bdf5fcd581bffdbf64fde"
        ),
        "timeout": (
            "197b5b032549a166fb9fbecc442f5f99"
            "52377ac4d7928b015943e478882db0db"
        ),
        "no_policy": (
            "dd441d9d3f443d5d38cd40c5a6d2a8a1"
            "d6ac2d6c2ff2f11da3fef1b6426a899a"
        ),
        "no_hedging": (
            "4709f67c5b00d6f913532cf89a7738fb"
            "95b4e6a72f4f1bff4ed5fb8ac05e3742"
        ),
        "congested": (
            "918cefc4ceadee978dcd77456287274c"
            "4f4bf5183f145cad831e8d3ff6770406"
        ),
    }

    @staticmethod
    def _run(monkeypatch, policy, deadline=np.inf, faults=True,
             fast_replay=True, slot_seconds=300.0):
        captured = []
        run = SimulatedCluster.run

        def capture(self, *args, **kwargs):
            outcomes = run(self, *args, **kwargs)
            captured.extend(outcomes)
            return outcomes

        monkeypatch.setattr(SimulatedCluster, "run", capture)
        sim = OnlineSimulator(
            stadium_topology(8, seed=0),
            eshop_application(),
            ProblemConfig(weight=0.5, budget=6000.0, deadline=deadline),
            WorkloadSpec(n_users=300, data_scale=5.0),
            seed=1,
            fast_replay=fast_replay,
            slot_seconds=slot_seconds,
        )
        injector = (
            FaultInjector(FaultConfig.at_intensity(0.4), seed=1)
            if faults else None
        )
        sim.run(OnlineSoCL(), n_slots=6, faults=injector, resilience=policy)
        h = hashlib.sha256()
        for o in captured:
            h.update(repr((
                o.request, float(o.start).hex(), float(o.finish).hex(),
                float(o.queueing).hex(), float(o.cold_start).hex(),
                o.retries, o.hedges, o.status,
            )).encode())
        return captured, h.hexdigest()

    def test_retries_and_hedges(self, monkeypatch):
        outs, digest = self._run(monkeypatch, ResiliencePolicy())
        assert sum(o.retries for o in outs) > 0
        assert sum(o.hedges for o in outs) > 0
        assert digest == self.GOLDEN["retry_hedge"]

    def test_timeouts(self, monkeypatch):
        outs, digest = self._run(
            monkeypatch, ResiliencePolicy(timeout_factor=0.5), deadline=2.0
        )
        assert sum(o.status == "timeout" for o in outs) > 0
        assert digest == self.GOLDEN["timeout"]

    def test_no_policy_hard_failures(self, monkeypatch):
        outs, digest = self._run(monkeypatch, None)
        assert sum(o.status == "failed" for o in outs) > 0
        assert digest == self.GOLDEN["no_policy"]

    def test_no_hedging(self, monkeypatch):
        outs, digest = self._run(monkeypatch, ResiliencePolicy(hedging=False))
        assert sum(o.retries for o in outs) > 0
        assert sum(o.status == "failed" for o in outs) > 0
        assert sum(o.hedges for o in outs) == 0
        assert digest == self.GOLDEN["no_hedging"]

    def test_congested_fault_free_event_loop(self, monkeypatch):
        outs, digest = self._run(
            monkeypatch, None, faults=False, fast_replay=False,
            slot_seconds=5.0,
        )
        assert sum(o.queueing for o in outs) > 0.0
        assert digest == self.GOLDEN["congested"]
