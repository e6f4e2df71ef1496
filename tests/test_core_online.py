"""Tests for repro.core.online (warm-start online SoCL)."""

import numpy as np
import pytest

from repro.core import OnlineSoCL, SoCL, demand_shift
from repro.microservices import eshop_application
from repro.model import ProblemConfig, ProblemInstance
from repro.network import stadium_topology
from repro.workload import BehaviorModel, WorkloadSpec, behavioral_requests, generate_requests


@pytest.fixture
def components():
    net = stadium_topology(10, seed=3)
    app = eshop_application()
    cfg = ProblemConfig(weight=0.5, budget=6000.0)
    return net, app, cfg


def make_instance(components, rng, n_users=20):
    net, app, cfg = components
    reqs = generate_requests(
        net, app, WorkloadSpec(n_users=n_users, data_scale=5.0), rng=rng
    )
    return ProblemInstance(net, app, reqs, cfg)


class TestDemandShift:
    def test_identical_zero(self):
        d = np.ones((3, 4))
        assert demand_shift(d, d) == 0.0

    def test_total_move_one(self):
        a = np.zeros((2, 2))
        a[0, 0] = 10
        b = np.zeros((2, 2))
        b[1, 1] = 10
        assert demand_shift(a, b) == pytest.approx(2.0)  # 10 out + 10 in

    def test_growth_unbounded(self):
        a = np.ones((2, 2))
        b = 3 * np.ones((2, 2))
        assert demand_shift(a, b) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            demand_shift(np.ones((2, 2)), np.ones((3, 2)))


class TestOnlineSoCL:
    def test_first_solve_is_full(self, components):
        solver = OnlineSoCL()
        res = solver.solve(make_instance(components, rng=0))
        assert res.extra["mode"] == "full"
        assert res.feasibility.feasible

    def test_incremental_under_threshold(self, components):
        solver = OnlineSoCL(shift_threshold=10.0)  # always incremental
        rng = np.random.default_rng(0)
        solver.solve(make_instance(components, rng=rng))
        res = solver.solve(make_instance(components, rng=rng))
        assert res.extra["mode"] == "incremental"
        assert res.feasibility.feasible

    def test_full_over_threshold(self, components):
        solver = OnlineSoCL(shift_threshold=0.0)  # always full after slot 1
        rng = np.random.default_rng(0)
        solver.solve(make_instance(components, rng=rng))
        res = solver.solve(make_instance(components, rng=rng))
        assert res.extra["mode"] == "full"

    def test_incremental_quality_close_to_full(self, components):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        online = OnlineSoCL(shift_threshold=10.0)
        fresh_objs, online_objs = [], []
        for slot in range(4):
            inst_a = make_instance(components, rng=rng_a)
            inst_b = make_instance(components, rng=rng_b)
            fresh_objs.append(SoCL().solve(inst_a).report.objective)
            online_objs.append(online.solve(inst_b).report.objective)
        # incremental repair stays within 10% of scratch re-solve
        for fresh, onl in zip(fresh_objs[1:], online_objs[1:]):
            assert onl <= fresh * 1.10

    def test_incremental_faster_than_full(self, components):
        rng = np.random.default_rng(0)
        online = OnlineSoCL(shift_threshold=10.0)
        first = online.solve(make_instance(components, rng=rng, n_users=60))
        second = online.solve(make_instance(components, rng=rng, n_users=60))
        assert second.extra["mode"] == "incremental"
        assert second.runtime < first.runtime

    def test_budget_respected_incrementally(self, components):
        rng = np.random.default_rng(0)
        online = OnlineSoCL(shift_threshold=10.0)
        for _ in range(4):
            res = online.solve(make_instance(components, rng=rng))
            assert res.feasibility.budget_ok
            assert res.feasibility.storage_ok

    def test_coverage_of_new_services(self, components):
        net, app, cfg = components
        online = OnlineSoCL(shift_threshold=10.0)
        rng = np.random.default_rng(0)
        online.solve(make_instance(components, rng=rng))
        res = online.solve(make_instance(components, rng=rng))
        # every requested service in slot 2 is served from the edge
        assert not res.routing.uses_cloud().any()

    def test_redeployment_accounting(self, components):
        rng = np.random.default_rng(0)
        online = OnlineSoCL(shift_threshold=10.0)
        first = online.solve(make_instance(components, rng=rng))
        assert first.extra["redeployed_instances"] == first.placement.total_instances
        second = online.solve(make_instance(components, rng=rng))
        assert 0 <= second.extra["redeployed_instances"] <= second.placement.total_instances

    def test_reset(self, components):
        online = OnlineSoCL(shift_threshold=10.0)
        rng = np.random.default_rng(0)
        online.solve(make_instance(components, rng=rng))
        online.reset()
        res = online.solve(make_instance(components, rng=rng))
        assert res.extra["mode"] == "full"

    def test_behavioral_workload_triggers_incremental(self, components):
        """Stable per-user behavior keeps demand shift lower than fresh
        random chains, so a threshold between the two regimes engages
        the warm path exactly for behavioral workloads."""
        net, app, cfg = components
        model = BehaviorModel(app, n_users=40, seed=0)
        homes = np.random.default_rng(1).integers(0, net.n, size=40)

        # measure both regimes' slot-to-slot shifts
        from repro.workload.requests import demand_matrix

        def shifts(make_reqs):
            prev, out = None, []
            for slot in range(4):
                reqs = make_reqs(slot)
                d = demand_matrix(reqs, app.n_services, net.n)
                if prev is not None:
                    out.append(demand_shift(prev, d))
                prev = d
            return np.mean(out)

        behavioral = shifts(
            lambda slot: behavioral_requests(
                net, app, model, rng=slot, homes=homes, data_scale=5.0
            )
        )
        rng = np.random.default_rng(0)
        random_chains = shifts(
            lambda slot: generate_requests(
                net, app, WorkloadSpec(n_users=40, data_scale=5.0), rng=rng
            )
        )
        assert behavioral < random_chains

        online = OnlineSoCL(shift_threshold=(behavioral + random_chains) / 2)
        modes = []
        for slot in range(3):
            reqs = behavioral_requests(
                net, app, model, rng=slot, homes=homes, data_scale=5.0
            )
            inst = ProblemInstance(net, app, reqs, cfg)
            modes.append(online.solve(inst).extra["mode"])
        assert modes[0] == "full"
        assert "incremental" in modes[1:]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            OnlineSoCL(shift_threshold=-1.0)


class TestRetention:
    def test_retention_adds_instances(self, components):
        rng = np.random.default_rng(0)
        plain = OnlineSoCL(shift_threshold=10.0, retention=False)
        retaining = OnlineSoCL(shift_threshold=10.0, retention=True)
        for solver in (plain, retaining):
            # independent identical slot streams
            local_rng = np.random.default_rng(0)
            solver.solve(make_instance(components, rng=local_rng))
        a = plain.solve(make_instance(components, rng=np.random.default_rng(1)))
        b = retaining.solve(make_instance(components, rng=np.random.default_rng(1)))
        assert b.extra["retained_instances"] >= 0
        assert b.placement.total_instances >= a.placement.total_instances

    def test_retention_respects_budget_and_storage(self, components):
        rng = np.random.default_rng(0)
        solver = OnlineSoCL(shift_threshold=10.0, retention=True)
        for _ in range(4):
            res = solver.solve(make_instance(components, rng=rng))
            assert res.feasibility.budget_ok
            assert res.feasibility.storage_ok

    def test_sticky_routing_valid(self, components):
        from repro.model import check_assignment

        rng = np.random.default_rng(0)
        solver = OnlineSoCL(shift_threshold=10.0, retention=True)
        solver.solve(make_instance(components, rng=rng))
        res = solver.solve(make_instance(components, rng=rng))
        assert check_assignment(res.routing.instance, res.placement, res.routing)

    def test_sticky_reuses_surviving_choices(self, components):
        rng = np.random.default_rng(0)
        solver = OnlineSoCL(shift_threshold=10.0, retention=True)
        first = solver.solve(make_instance(components, rng=rng))
        prefs = dict(solver._prev_preference)
        second = solver.solve(make_instance(components, rng=rng))
        inst = second.routing.instance
        reused = 0
        total = 0
        for h, req in enumerate(inst.requests):
            nodes = second.routing.nodes_for(h)
            for j, svc in enumerate(req.chain):
                key = (svc, req.home)
                if key in prefs and second.placement.has(svc, prefs[key]):
                    total += 1
                    if nodes[j] == prefs[key]:
                        reused += 1
        if total:
            assert reused == total  # sticky always reuses valid choices

    def test_reset_clears_preferences(self, components):
        rng = np.random.default_rng(0)
        solver = OnlineSoCL(shift_threshold=10.0, retention=True)
        solver.solve(make_instance(components, rng=rng))
        assert solver._prev_preference
        solver.reset()
        assert solver._prev_preference == {}


class TestFailureAvoidance:
    """OnlineSoCL.note_failures: one-slot memory of crashed instances
    that the next solve routes around (when a surviving replica exists).

    Replicas arise from warm-instance retention, so the fixture warms a
    retaining solver for a few slots first.
    """

    def _warmed(self, components):
        rng = np.random.default_rng(0)
        solver = OnlineSoCL(shift_threshold=10.0, retention=True)
        res = None
        for _ in range(3):
            res = solver.solve(make_instance(components, rng=rng))
        return solver, res, rng

    def _used_multi_host_pair(self, res):
        """A routed (service, node) pair with >1 surviving host."""
        inst = res.routing.instance
        for h, req in enumerate(inst.requests):
            nodes = res.routing.nodes_for(h)
            for j, svc in enumerate(req.chain):
                node = int(nodes[j])
                if node < inst.n_servers and res.placement.hosts(svc).size > 1:
                    return int(svc), node
        raise AssertionError("warmed scenario produced no replicated pair")

    def test_note_failures_reroutes_around_pair(self, components):
        solver, warmed, rng = self._warmed(components)
        pair = self._used_multi_host_pair(warmed)
        solver.note_failures([pair])
        res = solver.solve(make_instance(components, rng=rng))
        assert res.extra["rerouted_requests"] >= 1
        inst = res.routing.instance
        for h, req in enumerate(inst.requests):
            nodes = res.routing.nodes_for(h)
            for j, svc in enumerate(req.chain):
                assert (int(svc), int(nodes[j])) != pair

    def test_failures_cleared_after_one_slot(self, components):
        solver, warmed, rng = self._warmed(components)
        solver.note_failures([self._used_multi_host_pair(warmed)])
        solver.solve(make_instance(components, rng=rng))
        res = solver.solve(make_instance(components, rng=rng))
        assert res.extra["rerouted_requests"] == 0

    def test_single_host_service_never_stranded(self, components):
        # report every placed pair as failed: avoidance only removes
        # pairs with a surviving replica, so single-host services keep
        # their instance and the routing stays feasible
        from repro.model import check_assignment

        solver, warmed, rng = self._warmed(components)
        solver.note_failures(warmed.placement.pairs())
        res = solver.solve(make_instance(components, rng=rng))
        assert res.feasibility.budget_ok
        assert check_assignment(res.routing.instance, res.placement, res.routing)
        # avoidance reroutes; it never mutates the placement itself
        for svc in range(res.placement.n_services):
            hosts = res.placement.hosts(svc)
            for h, req in enumerate(res.routing.instance.requests):
                nodes = res.routing.nodes_for(h)
                for j, s in enumerate(req.chain):
                    if int(s) == svc and int(nodes[j]) < res.placement.n_servers:
                        assert int(nodes[j]) in hosts

    def test_reset_clears_failure_memory(self, components):
        solver, warmed, rng = self._warmed(components)
        solver.note_failures([self._used_multi_host_pair(warmed)])
        solver.reset()
        res = solver.solve(make_instance(components, rng=rng))
        assert res.extra["rerouted_requests"] == 0

    def test_routing_stays_feasible_after_avoidance(self, components):
        from repro.model import check_assignment

        solver, warmed, rng = self._warmed(components)
        solver.note_failures([self._used_multi_host_pair(warmed)])
        res = solver.solve(make_instance(components, rng=rng))
        assert check_assignment(res.routing.instance, res.placement, res.routing)
