"""Tests for repro.runtime.autoscale (reactive feedback-control loop).

Covers the scaling-rule edge cases the docs promise
(docs/AUTOSCALING.md): hysteresis no-flap (property-based), cooldown
suppression, evict-while-invoking, scale-to-zero with cloud fallback,
the warm-pool floor, and the bit-identity contract with the autoscaler
disabled.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SoCL
from repro.experiments.scenarios import ScenarioParams, build_scenario
from repro.microservices import eshop_application
from repro.model import Placement, ProblemConfig
from repro.network import grid_topology
from repro.runtime import (
    AutoscaleConfig,
    Autoscaler,
    InstancePool,
    OnlineSimulator,
    ScalingAction,
    ScalingPolicy,
    StaticProvisioner,
    UtilizationMonitor,
)
from repro.runtime.autoscale import Scaler, ServiceSignal
from repro.workload import WorkloadSpec


@pytest.fixture(scope="module")
def instance():
    return build_scenario(ScenarioParams(n_servers=5, n_users=8, seed=0))


@pytest.fixture
def sim_components():
    network = grid_topology(3, 3, seed=3)
    app = eshop_application()
    config = ProblemConfig(weight=0.5, budget=6000.0)
    spec = WorkloadSpec(n_users=12)
    return network, app, config, spec


def _signals(instance, **overrides):
    """One in-band signal per requested service, overridable per test."""
    N = instance.n_servers
    return {
        int(svc): ServiceSignal(node_rate=np.zeros(N), **overrides)
        for svc in instance.requested_services
    }


class TestConfig:
    def test_band_must_be_ordered(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(low_watermark=0.7, high_watermark=0.6)

    def test_max_step_floor(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(max_step=0)

    def test_ema_alpha_must_update(self):
        with pytest.raises(ValueError):
            AutoscaleConfig(ema_alpha=0.0)

    def test_action_kind_validated(self):
        with pytest.raises(ValueError):
            ScalingAction("sideways", 0, 0)


class TestHysteresisNoFlap:
    @settings(max_examples=25, deadline=None)
    @given(
        pressure=st.floats(min_value=0.26, max_value=0.64),
        queueing=st.floats(min_value=0.0, max_value=0.99),
        slots=st.integers(min_value=1, max_value=6),
    )
    def test_in_band_signals_never_act(self, pressure, queueing, slots):
        """Any signal inside the hysteresis band holds, slot after slot:
        an oscillating-but-in-band pressure can never flap replicas."""
        instance = build_scenario(ScenarioParams(n_servers=5, n_users=8, seed=0))
        cfg = AutoscaleConfig(low_watermark=0.25, high_watermark=0.65, queue_high=1.0)
        policy = ScalingPolicy(cfg)
        placement = SoCL().solve(instance).placement
        signals = _signals(instance, utilization=pressure, queueing=queueing)
        for slot in range(slots):
            actions, held, suppressed = policy.decide(
                slot, signals, instance, placement
            )
            assert actions == []
            assert suppressed == 0
            assert held == len(signals)

    def test_band_edges_are_exclusive(self, instance):
        """Pressure exactly at a watermark holds (strict inequalities)."""
        cfg = AutoscaleConfig(low_watermark=0.25, high_watermark=0.65)
        policy = ScalingPolicy(cfg)
        placement = SoCL().solve(instance).placement
        for edge in (0.25, 0.65):
            actions, _, _ = policy.decide(
                0, _signals(instance, utilization=edge), instance, placement
            )
            assert actions == []


class TestCooldowns:
    def test_scale_up_cooldown_suppresses(self, instance):
        cfg = AutoscaleConfig(scale_up_cooldown=2)
        policy = ScalingPolicy(cfg)
        placement = SoCL().solve(instance).placement
        hot = _signals(instance, utilization=0.9)
        actions, _, _ = policy.decide(0, hot, instance, placement)
        acted = {a.service for a in actions if a.kind == "up"}
        assert acted, "saturated services should scale up"
        actions2, _, suppressed2 = policy.decide(1, hot, instance, placement)
        assert suppressed2 >= len(acted)
        assert not ({a.service for a in actions2} & acted)
        # past the cooldown window the same trigger acts again
        actions3, _, _ = policy.decide(3, hot, instance, placement)
        assert {a.service for a in actions3 if a.kind == "up"} & acted

    def test_scale_down_cooldown_suppresses(self, instance):
        cfg = AutoscaleConfig(scale_down_cooldown=3, min_replicas=0)
        policy = ScalingPolicy(cfg)
        placement = Placement.full(instance)
        cold = _signals(instance, utilization=0.01)
        actions, _, _ = policy.decide(0, cold, instance, placement)
        downs = {a.service for a in actions if a.kind == "down"}
        assert downs
        actions2, _, suppressed2 = policy.decide(1, cold, instance, placement)
        assert suppressed2 >= len(downs)
        assert not ({a.service for a in actions2} & downs)


class TestPoolActions:
    def test_evict_while_invoking(self, instance):
        """An evicted instance stays provisioned but pays a fresh cold
        start on its next invocation — eviction mid-traffic never strands
        a request."""
        placement = Placement.full(instance)
        pool = InstancePool(placement)
        svc, node = int(instance.requested_services[0]), 0
        assert pool.invoke(svc, node, 0.0) > 0.0  # cold
        assert pool.invoke(svc, node, 1.0) == 0.0  # warm
        pool.evict(svc, node)
        assert pool.is_provisioned(svc, node)
        assert pool.invoke(svc, node, 2.0) > 0.0  # cold again
        assert pool.evictions == 1

    def test_prewarm_outside_request_path(self, instance):
        placement = Placement.full(instance)
        pool = InstancePool(placement)
        svc, node = int(instance.requested_services[0]), 0
        pool.prewarm(svc, node, 0.0)
        assert pool.prewarms == 1
        assert pool.invoke(svc, node, 1.0) == 0.0  # warm hit, no cold start
        assert pool.cold_starts == 0

    def test_prewarm_requires_provisioning(self, instance):
        pool = InstancePool(Placement.empty(instance))
        with pytest.raises(ValueError):
            pool.prewarm(0, 0, 0.0)

    def test_scaler_skips_stale_prewarms(self, instance):
        """A prewarm decided for a pair scaled down in the same slot is
        silently dropped at the pool."""
        placement = Placement.empty(instance)
        svc = int(instance.requested_services[0])
        placement.add(svc, 0)
        pool = InstancePool(placement)
        n_pre, n_ev = Scaler().apply_pool(
            pool, [ScalingAction("prewarm", svc, 1)], now=0.0
        )
        assert (n_pre, n_ev) == (0, 0)


class TestScaleToZero:
    def test_down_to_zero_routes_to_cloud(self, instance):
        """With ``min_replicas=0`` the last replica may be removed; the
        partial re-route sends the orphaned invocations to the cloud
        (index ``n_servers``) instead of stranding them."""
        from repro.model.routing import greedy_routing

        cfg = AutoscaleConfig(min_replicas=0)
        policy = ScalingPolicy(cfg)
        placement = SoCL().solve(instance).placement
        svc = int(instance.requested_services[0])
        hosts = [int(k) for k in placement.hosts(svc)]
        assert hosts
        routing = greedy_routing(instance, placement)
        actions = [ScalingAction("down", svc, k) for k in hosts]
        new_p, new_r, changed = Scaler().apply_scaling(
            instance, placement, routing, actions
        )
        assert changed
        assert new_p.instance_count(svc) == 0
        hit = (instance.chain_matrix == svc) & instance.chain_mask
        assert np.all(new_r.assignment[hit] == instance.n_servers)
        # untouched requests keep the solver's routing bit-for-bit
        untouched = ~hit.any(axis=1)
        assert np.array_equal(
            new_r.assignment[untouched], routing.assignment[untouched]
        )
        # policy respects the floor when min_replicas > 0
        floor = ScalingPolicy(AutoscaleConfig(min_replicas=1))
        acts, _, _ = floor.decide(
            0, {svc: ServiceSignal(node_rate=np.zeros(instance.n_servers))},
            instance,
            new_p,
        )
        assert all(a.kind != "down" for a in acts)


class TestWarmPool:
    def test_floor_for_services_with_traffic(self, instance):
        cfg = AutoscaleConfig(warm_fraction=0.01, warm_floor=1)
        policy = ScalingPolicy(cfg)
        placement = Placement.full(instance)
        svc = int(instance.requested_services[0])
        sig = {svc: ServiceSignal(invocations=5.0, node_rate=np.ones(instance.n_servers))}
        plan = policy.warm_plan(sig, placement)
        prewarms = [a for a in plan if a.kind == "prewarm"]
        assert len(prewarms) == 1  # ceil(0.01·N) would be 1 host anyway: floor binds
        assert len([a for a in plan if a.kind == "evict"]) == (
            placement.hosts(svc).size - 1
        )

    def test_full_fraction_keeps_everything_warm(self, instance):
        cfg = AutoscaleConfig(warm_fraction=1.0)
        policy = ScalingPolicy(cfg)
        placement = Placement.full(instance)
        svc = int(instance.requested_services[0])
        sig = {svc: ServiceSignal(invocations=5.0, node_rate=np.ones(instance.n_servers))}
        plan = policy.warm_plan(sig, placement)
        assert all(a.kind == "prewarm" for a in plan)
        assert len(plan) == placement.hosts(svc).size

    def test_hot_hosts_ranked_first(self, instance):
        cfg = AutoscaleConfig(warm_fraction=0.4)
        policy = ScalingPolicy(cfg)
        placement = Placement.full(instance)
        svc = int(instance.requested_services[0])
        rate = np.zeros(instance.n_servers)
        rate[2] = 10.0
        plan = policy.warm_plan(
            {svc: ServiceSignal(invocations=5.0, node_rate=rate)}, placement
        )
        first = next(a for a in plan if a.kind == "prewarm")
        assert first.node == 2


class TestMonitor:
    def test_first_observation_passes_through(self):
        mon = UtilizationMonitor(alpha=0.5)
        assert mon._ema(0.0, 0.8) == 0.8

    def test_ema_smooths_later_slots(self):
        mon = UtilizationMonitor(alpha=0.5)
        mon.slots_observed = 1
        assert mon._ema(0.8, 0.0) == pytest.approx(0.4)

    def test_observe_tracks_requested_services(self, sim_components):
        net, app, cfg, spec = sim_components
        asc = Autoscaler(AutoscaleConfig())
        sim = OnlineSimulator(net, app, cfg, spec, seed=0, autoscaler=asc)
        sim.run(SoCL(), n_slots=2)
        sigs = asc.monitor.signals()
        assert sigs and asc.monitor.slots_observed == 2
        for sig in sigs.values():
            assert 0.0 <= sig.utilization <= 1.0 + 1e-9
            assert 0.0 <= sig.cloud_share <= 1.0


class TestBitIdentity:
    def test_enabled_autoscaler_records_activity(self, sim_components):
        net, app, cfg, spec = sim_components
        asc = Autoscaler(AutoscaleConfig())
        res = OnlineSimulator(
            net, app, cfg, spec, seed=7, autoscaler=asc
        ).run(SoCL(), n_slots=3)
        assert asc.stats.slots == 3
        assert sum(s.n_prewarms for s in res.slots) == asc.stats.prewarms
        assert res.instance_seconds() == sum(
            s.n_provisioned for s in res.slots
        ) * 300.0


class TestReactiveMode:
    def test_static_provisioner_holds_placement(self, instance):
        prov = StaticProvisioner()
        a = prov.solve(instance)
        b = prov.solve(instance)
        assert a.placement == b.placement
        prov.reset()
        c = prov.solve(instance)
        assert c.placement == a.placement  # same bootstrap, re-derived

    def test_coverage_is_minimal(self, instance):
        placement = StaticProvisioner().solve(instance).placement
        for svc in instance.requested_services:
            assert placement.instance_count(int(svc)) <= 1

    def test_reactive_holds_between_slots(self, sim_components):
        net, app, cfg, spec = sim_components
        asc = Autoscaler(AutoscaleConfig(), reactive=True)
        res = OnlineSimulator(
            net, app, cfg, spec, seed=0, autoscaler=asc
        ).run(StaticProvisioner(), n_slots=3)
        assert res.solver_name == "Static"
        assert asc.name == "AS-reactive"
        assert res.completion_rate == pytest.approx(1.0)


class TestSweepSchema:
    def test_autoscale_sweep_rows(self):
        from repro.experiments.figures import autoscale_sweep

        rows = autoscale_sweep(
            modes=("socl", "reactive"),
            traffics=("diurnal",),
            n_users=10,
            n_servers=6,
            n_slots=2,
        )
        assert {(r["traffic"], r["mode"]) for r in rows} == {
            ("diurnal", "socl"),
            ("diurnal", "reactive"),
        }
        for r in rows:
            assert 0.0 <= r["completion_rate"] <= 1.0
            assert r["instance_seconds"] > 0
            assert r["p99_latency"] >= r["mean_latency"] >= 0.0
        plain = next(r for r in rows if r["mode"] == "socl")
        assert plain["scale_ups"] == plain["prewarms"] == 0
