"""Tests for repro.core.storage (Alg. 5 FuzzyAHP storage planning)."""

import numpy as np
import pytest

from repro.core import SoCLConfig, storage_plan
from repro.core.storage import local_demand_factor, order_factor
from repro.microservices import Application, Microservice
from repro.model import Placement, ProblemConfig, ProblemInstance
from repro.model.constraints import check_storage
from repro.network import EdgeNetwork, EdgeServer, Link
from repro.workload import UserRequest


@pytest.fixture
def cramped_instance(tiny_app):
    """Two nodes with tiny storage so planning must migrate."""
    servers = [
        EdgeServer(0, compute=10.0, storage=3.0, position=(0, 0)),
        EdgeServer(1, compute=10.0, storage=4.0, position=(1, 0)),
    ]
    net = EdgeNetwork(servers, [Link(0, 1, bandwidth=40.0, gain=3.0)])
    requests = [
        UserRequest(0, home=0, chain=(0, 1, 2), data_in=1.0, data_out=0.5, edge_data=(2.0, 1.0)),
        UserRequest(1, home=1, chain=(0, 1), data_in=1.0, data_out=0.5, edge_data=(2.0,)),
    ]
    return ProblemInstance(net, tiny_app, requests, ProblemConfig(budget=5000.0))


class TestOrderFactor:
    def test_shape(self, tiny_instance):
        r = order_factor(tiny_instance)
        assert r.shape == (3, 3)

    def test_first_position_weight(self, tiny_instance):
        r = order_factor(tiny_instance)
        # service 0 is always first in its chains → weight 3 per user
        assert r[0, 0] == pytest.approx(3.0)

    def test_last_position_weight(self, tiny_instance):
        r = order_factor(tiny_instance)
        # service 2 is last wherever it appears → weight 2
        assert r[2, 0] == pytest.approx(2.0)
        assert r[2, 2] == pytest.approx(2.0)

    def test_middle_position_weight(self, tiny_instance):
        r = order_factor(tiny_instance)
        # request 1 (home 0): chain (0,1) → service 1 last (2.0)
        # request 0 (home 0): chain (0,1,2) → service 1 middle (1.0)
        assert r[1, 0] == pytest.approx((2.0 + 1.0) / 2)

    def test_zero_without_demand(self, tiny_instance):
        r = order_factor(tiny_instance)
        assert r[0, 1] == 0.0  # service 0 never requested from home 1
        assert r[2, 1] == pytest.approx(2.0)  # request 3: chain (1,2), last


class TestLocalDemandFactor:
    def test_scores_for_hosted_services(self, tiny_instance):
        p = Placement.from_pairs(tiny_instance, [(0, 0), (1, 0)])
        rho = local_demand_factor(tiny_instance, p, 0)
        assert set(rho) == {0, 1}
        assert all(0.0 <= v <= 1.0 for v in rho.values())

    def test_empty_node(self, tiny_instance):
        p = Placement.empty(tiny_instance)
        assert local_demand_factor(tiny_instance, p, 0) == {}


class TestStoragePlan:
    def test_feasible_placement_unchanged(self, tiny_instance):
        p = Placement.from_pairs(tiny_instance, [(0, 0), (1, 1), (2, 2)])
        outcome = storage_plan(tiny_instance, p)
        assert outcome.success
        assert outcome.migrations == ()
        assert outcome.placement == p

    def test_overload_migrates(self, cramped_instance):
        # node 0 capacity 3; φ = [1,1,2] → all three services = 4 > 3
        p = Placement.from_pairs(cramped_instance, [(0, 0), (1, 0), (2, 0)])
        outcome = storage_plan(cramped_instance, p)
        assert outcome.success
        assert len(outcome.migrations) >= 1
        assert check_storage(cramped_instance, outcome.placement)
        # instance population preserved
        assert outcome.placement.total_instances == 3

    def test_migration_target_lacks_duplicate(self, cramped_instance):
        p = Placement.from_pairs(
            cramped_instance, [(0, 0), (1, 0), (2, 0), (0, 1)]
        )
        outcome = storage_plan(cramped_instance, p)
        # service 0 already on node 1 → the migrated instance must not be
        # a duplicate of an existing one
        for svc, src, dst in outcome.migrations:
            assert outcome.placement.has(svc, dst)

    def test_globally_infeasible_signalled(self, cramped_instance):
        # total capacity 7; place all 3 services on both nodes: need 8
        p = Placement.from_pairs(
            cramped_instance,
            [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)],
        )
        outcome = storage_plan(cramped_instance, p)
        assert not outcome.success

    def test_naive_ablation_mode(self, cramped_instance):
        p = Placement.from_pairs(cramped_instance, [(0, 0), (1, 0), (2, 0)])
        outcome = storage_plan(
            cramped_instance, p, SoCLConfig(storage_planning=False)
        )
        assert outcome.success
        # naive mode evicts the largest footprint first (service 2, φ=2)
        assert outcome.migrations[0][0] == 2

    def test_rounding_full_node_not_reported_on_global_failure(self):
        # φ = 0.1 + 0.2 on a 0.3 node sums to 0.30000000000000004: full up
        # to rounding, which every overload test in the planner forgives.
        # Node 1 is hopelessly over, so the global-infeasible branch runs
        # and must report only node 1.
        app = Application(
            [
                Microservice(0, "a", compute=1.0, storage=0.1, deploy_cost=100.0, data_out=1.0),
                Microservice(1, "b", compute=1.0, storage=0.2, deploy_cost=100.0, data_out=1.0),
                Microservice(2, "c", compute=1.0, storage=5.0, deploy_cost=100.0, data_out=1.0),
            ],
            [(0, 1), (1, 2)],
            entrypoints=[0],
        )
        net = EdgeNetwork(
            [
                EdgeServer(0, compute=10.0, storage=0.3, position=(0, 0)),
                EdgeServer(1, compute=10.0, storage=1.0, position=(1, 0)),
            ],
            [Link(0, 1, bandwidth=40.0, gain=3.0)],
        )
        inst = ProblemInstance(
            net,
            app,
            [UserRequest(0, home=0, chain=(0, 1, 2), data_in=1.0, data_out=0.5, edge_data=(1.0, 1.0))],
        )
        p = Placement.from_pairs(inst, [(0, 0), (1, 0), (2, 1)])
        outcome = storage_plan(inst, p)
        assert not outcome.success
        assert outcome.migrations == ()
        assert outcome.overloaded == (1,)

    def test_input_not_mutated(self, cramped_instance):
        p = Placement.from_pairs(cramped_instance, [(0, 0), (1, 0), (2, 0)])
        before = p.copy()
        storage_plan(cramped_instance, p)
        assert p == before
