"""Tests for repro.core.combination (Alg. 3/4 multi-scale combination)."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    CombinationState,
    SoCLConfig,
    initial_partition,
    latency_losses,
    multi_scale_combination,
    preprovision,
)
from repro.core.combination import dependency_conflict_pairs, _filter_conflicts
from repro.experiments.scenarios import ScenarioParams, build_scenario
from repro.model import Placement, ProblemInstance, optimal_routing
from repro.model.cost import deployment_cost
from repro.model.latency import total_latency
from repro.network import EdgeNetwork


@pytest.fixture
def state(medium_instance):
    parts = initial_partition(medium_instance)
    pre = preprovision(medium_instance, parts)
    return CombinationState(medium_instance, parts, pre)


class TestDependencyConflicts:
    def test_pairs_from_chains(self, tiny_instance):
        pairs = dependency_conflict_pairs(tiny_instance)
        assert frozenset((0, 1)) in pairs
        assert frozenset((1, 2)) in pairs
        assert frozenset((0, 2)) not in pairs

    def test_filter_keeps_smaller_zeta(self):
        zetas = {(0, 0): 1.0, (1, 0): 2.0, (2, 1): 0.5}
        conflicts = {frozenset((0, 1))}
        counts = {0: 3, 1: 3, 2: 3}
        accepted = _filter_conflicts(list(zetas), zetas, conflicts, counts)
        assert (2, 1) in accepted
        assert (0, 0) in accepted  # smaller ζ than the conflicting (1, 0)
        assert (1, 0) not in accepted

    def test_filter_caps_per_service(self):
        zetas = {(0, 0): 1.0, (0, 1): 2.0, (0, 2): 3.0}
        accepted = _filter_conflicts(list(zetas), zetas, set(), {0: 2})
        # only count-1 = 1 removal allowed
        assert accepted == [(0, 0)]


class TestCombinationState:
    def test_reliance_serves_all_demand(self, state):
        rel = state.reliance
        inst = state.instance
        for svc in (int(i) for i in inst.requested_services):
            demand_nodes = np.nonzero(inst.demand_counts[svc] > 0)[0]
            assert (rel[svc, demand_nodes] >= 0).all()

    def test_reliance_points_at_hosts(self, state):
        rel = state.reliance
        inst = state.instance
        for svc in (int(i) for i in inst.requested_services):
            hosts = set(int(k) for k in state.placement.hosts(svc))
            demand_nodes = np.nonzero(inst.demand_counts[svc] > 0)[0]
            for f in demand_nodes:
                assert int(rel[svc, f]) in hosts

    def test_routing_consistent_with_reliance(self, state):
        routing = state.routing()
        rel = state.reliance
        inst = state.instance
        for h, req in enumerate(inst.requests):
            nodes = routing.nodes_for(h)
            for j, svc in enumerate(req.chain):
                assert nodes[j] == rel[svc, req.home]

    def test_objective_positive(self, state):
        assert state.objective() > 0

    def test_latency_loss_finite_and_zero_when_unused(self, state):
        # ζ may be negative (the reliance rule picks by channel speed, so a
        # forced alternative can have a faster CPU), but it is always finite,
        # and an instance no user relies on has ζ exactly 0.
        zetas = latency_losses(state)
        assert zetas  # pre-provisioning is generous → removable instances
        assert all(np.isfinite(z) for z in zetas.values())
        rel = state.reliance
        for (svc, node), z in zetas.items():
            if not (rel[svc] == node).any():
                assert z == 0.0

    def test_latency_loss_skips_singletons(self, state):
        inst = state.instance
        zetas = latency_losses(state)
        for svc in (int(i) for i in inst.requested_services):
            if state.placement.instance_count(svc) == 1:
                assert not any(k[0] == svc for k in zetas)

    def test_latency_loss_none_for_missing(self, state):
        svc = int(state.instance.requested_services[0])
        free_node = next(
            k
            for k in range(state.instance.n_servers)
            if not state.placement.has(svc, k)
        )
        assert state.latency_loss(svc, free_node) is None

    def test_tabu_respected(self, state):
        zetas = latency_losses(state)
        key = min(zetas, key=zetas.get)
        filtered = latency_losses(state, tabu={key})
        assert key not in filtered

    def test_remove_invalidates_cache(self, state):
        zetas = latency_losses(state)
        svc, node = min(zetas, key=zetas.get)
        before = state.objective()
        state.remove(svc, node)
        after = state.objective()
        assert before != after or True  # cache refreshed without error
        assert not state.placement.has(svc, node)


class TestMultiScaleCombination:
    def test_budget_met(self, medium_instance):
        parts = initial_partition(medium_instance)
        pre = preprovision(medium_instance, parts)
        placement, stats = multi_scale_combination(medium_instance, parts, pre)
        assert deployment_cost(medium_instance, placement) <= medium_instance.config.budget

    def test_coverage_preserved(self, medium_instance):
        parts = initial_partition(medium_instance)
        pre = preprovision(medium_instance, parts)
        placement, _ = multi_scale_combination(medium_instance, parts, pre)
        for svc in medium_instance.requested_services:
            assert placement.instance_count(int(svc)) >= 1

    def test_storage_satisfied(self, medium_instance):
        from repro.model.constraints import check_storage

        parts = initial_partition(medium_instance)
        pre = preprovision(medium_instance, parts)
        placement, _ = multi_scale_combination(medium_instance, parts, pre)
        assert check_storage(medium_instance, placement)

    def test_never_increases_instances(self, medium_instance):
        parts = initial_partition(medium_instance)
        pre = preprovision(medium_instance, parts)
        placement, _ = multi_scale_combination(medium_instance, parts, pre)
        assert placement.total_instances <= pre.total_instances

    def test_omega_controls_merge_rate(self, medium_instance):
        parts = initial_partition(medium_instance)
        pre = preprovision(medium_instance, parts)
        _, slow = multi_scale_combination(
            medium_instance, parts, pre, SoCLConfig(omega=0.05)
        )
        _, fast = multi_scale_combination(
            medium_instance, parts, pre, SoCLConfig(omega=0.8)
        )
        if slow.parallel_rounds and fast.parallel_rounds:
            assert fast.parallel_rounds <= slow.parallel_rounds

    def test_deadline_rollback(self, medium_instance):
        from repro.model import optimal_routing
        from repro.model.latency import total_latency

        # establish an achievable but tight deadline from a generous run
        parts = initial_partition(medium_instance)
        pre = preprovision(medium_instance, parts)
        base_placement, _ = multi_scale_combination(medium_instance, parts, pre)
        lat = total_latency(
            medium_instance, optimal_routing(medium_instance, base_placement)
        )
        inst = medium_instance.with_config(deadline=float(np.median(lat)) * 2)
        parts2 = initial_partition(inst)
        pre2 = preprovision(inst, parts2)
        placement, stats = multi_scale_combination(inst, parts2, pre2)
        # tighter deadline keeps at least as many instances
        assert placement.total_instances >= 1

    def test_theta_zero_stops_earlier_or_equal(self, medium_instance):
        parts = initial_partition(medium_instance)
        pre = preprovision(medium_instance, parts)
        _, eager = multi_scale_combination(
            medium_instance, parts, pre, SoCLConfig(theta=0.0)
        )
        _, tolerant = multi_scale_combination(
            medium_instance, parts, pre, SoCLConfig(theta=100.0)
        )
        assert eager.serial_merges <= tolerant.serial_merges + 1

    def test_input_placement_not_mutated(self, medium_instance):
        parts = initial_partition(medium_instance)
        pre = preprovision(medium_instance, parts)
        snapshot = pre.copy()
        multi_scale_combination(medium_instance, parts, pre)
        assert pre == snapshot

    def test_deterministic(self, medium_instance):
        parts = initial_partition(medium_instance)
        pre = preprovision(medium_instance, parts)
        a, _ = multi_scale_combination(medium_instance, parts, pre)
        b, _ = multi_scale_combination(medium_instance, parts, pre)
        assert a == b


class TestReliancePreference:
    """The connection-update rule's group preference (criteria 1-3)."""

    def test_same_group_preferred_over_closer_outsider(self, tiny_app):
        """A host in the user's partition group wins even when a host
        outside the group has a faster channel."""
        import numpy as np

        from repro.core.partition import PartitionResult, ServicePartition
        from repro.model import Placement, ProblemConfig, ProblemInstance
        from repro.network import EdgeNetwork, EdgeServer, Link
        from repro.workload import UserRequest

        # 0 --fast-- 1 --fast-- 2 ; user at 0; hosts at 1 (out-group) and 2
        servers = [
            EdgeServer(k, compute=10.0, storage=10.0, position=(k, 0))
            for k in range(3)
        ]
        links = [
            Link(0, 1, bandwidth=80.0, gain=3.0),
            Link(1, 2, bandwidth=80.0, gain=3.0),
        ]
        net = EdgeNetwork(servers, links)
        requests = [
            UserRequest(0, home=0, chain=(0,), data_in=1.0, data_out=0.1, edge_data=()),
        ]
        inst = ProblemInstance(net, tiny_app, requests, ProblemConfig(budget=5000.0))

        # hand-built partition: group 0 = {0, 2}; node 1 outside
        partition = PartitionResult(
            by_service={
                0: ServicePartition(
                    service=0, groups=[[0, 2]], candidates=[set()], xi=0.0
                )
            }
        )
        placement = Placement.from_pairs(inst, [(0, 1), (0, 2)])
        state = CombinationState(inst, partition, placement)
        # node 1 is closer (1 hop) than node 2 (2 hops), but 2 shares the
        # user's group → criterion (1) wins
        assert state.reliance[0, 0] == 2

    def test_cross_group_fallback_when_group_empty(self, tiny_app):
        import numpy as np

        from repro.core.partition import PartitionResult, ServicePartition
        from repro.model import Placement, ProblemConfig, ProblemInstance
        from repro.network import EdgeNetwork, EdgeServer, Link
        from repro.workload import UserRequest

        servers = [
            EdgeServer(k, compute=10.0, storage=10.0, position=(k, 0))
            for k in range(3)
        ]
        links = [
            Link(0, 1, bandwidth=80.0, gain=3.0),
            Link(1, 2, bandwidth=80.0, gain=3.0),
        ]
        net = EdgeNetwork(servers, links)
        requests = [
            UserRequest(0, home=0, chain=(0,), data_in=1.0, data_out=0.1, edge_data=()),
        ]
        inst = ProblemInstance(net, tiny_app, requests, ProblemConfig(budget=5000.0))
        partition = PartitionResult(
            by_service={
                0: ServicePartition(
                    service=0, groups=[[0, 2]], candidates=[set()], xi=0.0
                )
            }
        )
        # only an out-group host exists → criterion (3) fallback
        placement = Placement.from_pairs(inst, [(0, 1)])
        state = CombinationState(inst, partition, placement)
        assert state.reliance[0, 0] == 1


@pytest.mark.usefixtures("per_user_stream")
class TestSerialDescentGolden:
    """Recorded outcomes of ``multi_scale_combination`` on small instances.

    ``tests/golden_results.json`` tolerates 1% drift, so it cannot see a
    changed merge order.  These SHA-256 digests pin the final placement
    matrix and every :class:`CombinationStats` field on seeded 6- and
    8-server eshop instances whose storage is scaled down (so Alg. 5
    migrates, or the population does not fit at all), whose deadline is
    a multiple of the pre-provisioned worst case (so candidate merges
    roll back), and whose λ is small enough for the gradient δ to stop
    the descent.  Each case asserts the counters it is named for are
    non-zero, so the pin covers forced merges, gradient merges,
    rollbacks and storage migrations.  Cases named ``star_*`` run under
    the star latency model, so the serial descent's optimal-routing
    objective is pinned under both models.  The instances draw their requests
    from the frozen per-user stream (``per_user_stream``), so the pin is
    on the combination, not on the request generator.
    """

    # (servers, budget, storage scale, seed, deadline factor, weight λ,
    #  counters that must be non-zero)
    CASES = {
        "forced_and_gradient": (6, 6000.0, 0.8, 0, None, 0.5,
                                ("forced", "gradient", "migrations")),
        "forced_rollback": (8, 6000.0, 0.65, 0, 2.5, 0.5,
                            ("forced", "rollbacks", "migrations")),
        "forced_rollback_8k": (8, 8000.0, 0.65, 0, 2.5, 0.5,
                               ("forced", "rollbacks", "migrations")),
        "gradient_rollback": (8, 8000.0, 0.8, 0, 1.5, 0.5,
                              ("gradient", "rollbacks", "migrations")),
        "long_forced_run": (8, 8000.0, 0.65, 1, None, 0.5,
                            ("forced", "gradient", "migrations")),
        "small_forced_rollback": (6, 8000.0, 0.8, 1, 2.5, 0.5,
                                  ("forced", "rollbacks", "migrations")),
        "gradient_only": (8, 6000.0, 0.8, 0, 2.5, 0.5,
                          ("gradient", "rollbacks", "migrations")),
        "globally_infeasible": (6, 8000.0, 0.5, 1, None, 0.5, ("forced",)),
        # latency-heavy λ: the gradient test δ ≤ 0 ends these descents
        "gradient_stop": (8, 8000.0, 0.8, 0, 2.5, 0.02,
                          ("gradient", "rollbacks", "migrations")),
        "forced_then_gradient_stop": (8, 8000.0, 0.8, 1, None, 0.02,
                                      ("forced", "gradient", "migrations")),
        # star latency model; λ small enough that pricing these
        # placements under the chain model would pick other merges
        "star_forced_rollback": (6, 8000.0, 0.8, 0, 2.5, 0.1,
                                 ("forced", "rollbacks", "migrations")),
        "star_gradient_rollback": (8, 8000.0, 0.8, 0, 2.5, 0.02,
                                   ("gradient", "rollbacks", "migrations")),
    }

    GOLDEN = {
        "forced_and_gradient": (
            "127080ecf7d8b0e3e23ebd46f63a1616"
            "2d40acca97472160932777109587e9ee"
        ),
        "forced_rollback": (
            "7b6a46b027434629165eead64988c76e"
            "c4f237d2e99df3125879969deb56a3e9"
        ),
        "forced_rollback_8k": (
            "105746cc2c7371c7b39b44266485e779"
            "ffcdc566773347af0854cd3516e72b09"
        ),
        "globally_infeasible": (
            "f9c624eb3cf99c87645bf42d9d5d7e6c"
            "d7821c0f1877d93ceae505b4e3cf9680"
        ),
        "gradient_only": (
            "e64a9e1349c9f3827418c630506738f5"
            "d1b0fc9a44615fe5c8d2738395ac9260"
        ),
        "gradient_rollback": (
            "a2316b7e9e3d26d2899226ee6e9f2365"
            "5c0f9ad2ee09ce4fb24cbe62ef80904e"
        ),
        "long_forced_run": (
            "45c66957f79a74660bc46ec42a600d50"
            "78dff2acdecc1381d70309aee2a2b299"
        ),
        "small_forced_rollback": (
            "6168124d82e9005a5596617753b78727"
            "24da251806fafb920e1f369f9ebf57ba"
        ),
        "gradient_stop": (
            "15b3e5a449cd010d37391241d4a6da0b"
            "32c87b59d46ed9690d7eb490dccf26f7"
        ),
        "forced_then_gradient_stop": (
            "9457247bd76dc6538b816168e6deb9a3"
            "0fbaec3429ed539554431f29bd778439"
        ),
        "star_forced_rollback": (
            "6c09ef09cc23fa0f69b06eb31fa14719"
            "177e4ef956cd2a0285b014eebd404e5c"
        ),
        "star_gradient_rollback": (
            "9c482699f11bd88c0d3c4257bc142b20"
            "7d7d129384cf34182f98add6becea8c8"
        ),
    }

    @staticmethod
    def _instance(n_servers, budget, scale, seed, deadline_factor, weight,
                  latency_model="chain"):
        base = build_scenario(ScenarioParams(
            n_servers=n_servers, n_users=40, budget=budget, seed=seed,
            weight=weight, latency_model=latency_model,
        ))
        net = EdgeNetwork(
            [replace(s, storage=s.storage * scale) for s in base.network.servers],
            base.network.links,
        )
        inst = ProblemInstance(net, base.app, base.requests, base.config)
        if deadline_factor is not None:
            pre = preprovision(inst, initial_partition(inst))
            worst = total_latency(inst, optimal_routing(inst, pre)).max()
            inst = inst.with_config(deadline=float(worst * deadline_factor))
        return inst

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_digest(self, name):
        *shape, counters = self.CASES[name]
        model = "star" if name.startswith("star_") else "chain"
        inst = self._instance(*shape, latency_model=model)
        assert inst.config.latency_model == model
        parts = initial_partition(inst)
        pre = preprovision(inst, parts)
        placement, stats = multi_scale_combination(inst, parts, pre)
        d = stats.as_dict()
        seen = {
            "forced": d["forced_merges"],
            "gradient": d["serial_merges"] - d["forced_merges"],
            "rollbacks": d["rollbacks"],
            "migrations": d["migrations"],
        }
        for counter in counters:
            assert seen[counter] > 0, (name, counter, d)
        h = hashlib.sha256()
        h.update(repr(placement.matrix.shape).encode())
        h.update(placement.matrix.astype(np.uint8).tobytes())
        h.update(repr(sorted(d.items())).encode())
        assert h.hexdigest() == self.GOLDEN[name]


def _tied_instance(n_servers, n_users, seed, model="chain", deadline_factor=None):
    """Eshop users on identical servers joined by identical links, with
    identical data volumes: ζ values and candidate objectives tie."""
    from repro.microservices import eshop_application
    from repro.model import ProblemConfig
    from repro.network import EdgeServer, Link
    from repro.workload import UserRequest, WorkloadSpec, generate_requests

    app = eshop_application()
    servers = [EdgeServer(k, compute=10.0, storage=6.0) for k in range(n_servers)]
    links = [
        Link(a, (a + 1) % n_servers, bandwidth=20.0, gain=2.0)
        for a in range(n_servers)
    ] + [Link(a, a + n_servers // 2, bandwidth=20.0, gain=2.0) for a in range(n_servers // 2)]
    net = EdgeNetwork(servers, links)
    rng = np.random.default_rng(seed)
    chains = sorted(
        {tuple(r.chain) for r in generate_requests(net, app, WorkloadSpec(n_users=30), rng=seed)}
    )
    requests = []
    for h in range(n_users):
        chain = chains[int(rng.integers(0, len(chains)))]
        requests.append(UserRequest(
            h, home=int(rng.integers(0, n_servers)), chain=chain,
            data_in=1.0, data_out=1.0, edge_data=(1.0,) * (len(chain) - 1),
        ))
    inst = ProblemInstance(
        net, app, requests, ProblemConfig(weight=0.5, budget=8000.0, latency_model=model)
    )
    if deadline_factor is not None:
        pre = preprovision(inst, initial_partition(inst))
        worst = total_latency(inst, optimal_routing(inst, pre)).max()
        inst = inst.with_config(deadline=float(worst * deadline_factor))
    return inst


class TestBatchedSerialDescent:
    """The serial stage scores its candidates in one batched re-route;
    it must pick what the per-candidate loop (frozen in
    ``tests/reference_combination.py``) picks, ties to the lower
    candidate index, with the same counters."""

    @staticmethod
    def _compare(inst):
        from repro.obs import Tracer, use_tracer
        from tests import reference_combination as ref

        parts = initial_partition(inst)
        pre = preprovision(inst, parts)
        with use_tracer(Tracer("t")) as tracer:
            placement, stats = multi_scale_combination(inst, parts, pre)
        ref_placement, ref_stats, ref_reg = ref.multi_scale_combination(
            inst, parts, pre
        )
        assert placement == ref_placement
        assert stats.as_dict() == ref_stats.as_dict()
        assert tracer.counters["combination.merges_proposed"] == ref_reg.get(
            "merges_proposed"
        )
        return stats

    @pytest.mark.parametrize("model", ["chain", "star"])
    def test_tie_heavy_matches_per_candidate_loop(self, model, monkeypatch):
        from repro.model.engine import BatchRouter

        ties = []
        score_many = BatchRouter.score_many

        def spy(self, placements):
            trials = score_many(self, placements)
            sums = [t.latency_sum for t in trials]
            costs = [deployment_cost(self.instance, p) for p in placements]
            keys = list(zip(costs, sums))
            ties.append(keys.count(min(keys)) > 1)
            return trials

        monkeypatch.setattr(BatchRouter, "score_many", spy)
        for seed in (3, 4, 7):
            stats = self._compare(_tied_instance(8, 40, seed, model))
            assert stats.serial_merges > 0
        assert any(ties), "no iteration had tied candidates"

    @pytest.mark.parametrize("model", ["chain", "star"])
    def test_tie_heavy_under_deadlines(self, model):
        rollbacks = 0
        for factor in (1.0, 1.2, 1.5):
            inst = _tied_instance(8, 40, 1, model, deadline_factor=factor)
            rollbacks += self._compare(inst).rollbacks
        assert rollbacks > 0

    @pytest.mark.usefixtures("per_user_stream")
    @pytest.mark.parametrize("name", sorted(TestSerialDescentGolden.CASES))
    def test_golden_shapes(self, name):
        *shape, counters = TestSerialDescentGolden.CASES[name]
        model = "star" if name.startswith("star_") else "chain"
        stats = self._compare(
            TestSerialDescentGolden._instance(*shape, latency_model=model)
        )
        if "rollbacks" in counters:
            assert stats.rollbacks > 0

    def test_deadline_vector_rollbacks(self, tiny_instance):
        """Per-request deadlines (``tests/test_model_deadlines.py``'s shape)."""
        lat = total_latency(
            tiny_instance, optimal_routing(tiny_instance, Placement.full(tiny_instance))
        )
        for factor in (1.0, 1.5, 3.0):
            self._compare(tiny_instance.with_deadlines(lat * factor))
