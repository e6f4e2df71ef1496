"""Tests for repro.model.routing.load_aware_routing."""

import numpy as np
import pytest

from repro.model import (
    Placement,
    check_assignment,
    load_aware_routing,
    optimal_routing,
)
from repro.model.latency import total_latency
from repro.runtime import ServerlessConfig, SimulatedCluster


class TestLoadAwareRouting:
    def test_zero_weight_matches_optimal(self, medium_instance):
        p = Placement.full(medium_instance)
        opt = optimal_routing(medium_instance, p)
        la = load_aware_routing(medium_instance, p, congestion_weight=0.0)
        assert np.allclose(
            total_latency(medium_instance, opt),
            total_latency(medium_instance, la),
        )

    def test_valid_assignment(self, medium_instance):
        p = Placement.full(medium_instance)
        r = load_aware_routing(medium_instance, p, congestion_weight=2.0)
        assert check_assignment(medium_instance, p, r)

    def test_spreads_load(self, medium_instance):
        p = Placement.full(medium_instance)
        opt = optimal_routing(medium_instance, p)
        la = load_aware_routing(medium_instance, p, congestion_weight=5.0)

        def node_spread(routing):
            mask = medium_instance.chain_mask
            nodes = routing.assignment[mask]
            counts = np.bincount(nodes, minlength=medium_instance.n_servers + 1)
            return counts.max()

        assert node_spread(la) <= node_spread(opt)

    def test_reduces_des_queueing_under_contention(self, medium_instance):
        p = Placement.full(medium_instance)

        def queueing(routing):
            cluster = SimulatedCluster(
                medium_instance, p, routing,
                serverless=ServerlessConfig(cold_start=0.0),
            )
            cluster.run()  # simultaneous arrivals = worst-case contention
            return sum(o.queueing for o in cluster.outcomes)

        q_opt = queueing(optimal_routing(medium_instance, p))
        q_la = queueing(load_aware_routing(medium_instance, p, congestion_weight=4.0))
        assert q_la <= q_opt

    def test_analytic_latency_not_much_worse(self, medium_instance):
        # the analytic (uncontended) latency pays a bounded price for
        # load spreading
        p = Placement.full(medium_instance)
        opt = total_latency(
            medium_instance, optimal_routing(medium_instance, p)
        ).sum()
        la = total_latency(
            medium_instance,
            load_aware_routing(medium_instance, p, congestion_weight=1.0),
        ).sum()
        assert la <= 2.0 * opt

    def test_star_model(self, medium_instance):
        p = Placement.full(medium_instance)
        r = load_aware_routing(
            medium_instance, p, congestion_weight=1.0, model="star"
        )
        assert check_assignment(medium_instance, p, r)

    def test_cloud_fallback(self, tiny_instance):
        p = Placement.empty(tiny_instance)
        r = load_aware_routing(tiny_instance, p)
        assert r.uses_cloud().all()

    def test_negative_weight_rejected(self, medium_instance):
        p = Placement.full(medium_instance)
        with pytest.raises(ValueError, match="non-negative"):
            load_aware_routing(medium_instance, p, congestion_weight=-1.0)

    def test_deterministic(self, medium_instance):
        p = Placement.full(medium_instance)
        a = load_aware_routing(medium_instance, p, congestion_weight=2.0)
        b = load_aware_routing(medium_instance, p, congestion_weight=2.0)
        assert np.array_equal(a.assignment, b.assignment)
