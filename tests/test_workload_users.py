"""Tests for repro.workload.users."""

import numpy as np
import pytest

from repro.network import grid_topology
from repro.workload import WorkloadSpec, generate_requests, place_users
from repro.workload.users import reindex_requests


@pytest.fixture
def net():
    return grid_topology(3, 3, seed=1)


class TestWorkloadSpec:
    def test_defaults_valid(self):
        spec = WorkloadSpec(n_users=10)
        assert spec.n_users == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_users": 0},
            {"n_users": 5, "hotspot_fraction": 1.5},
            {"n_users": 5, "min_chain": 3, "max_chain": 2},
            {"n_users": 5, "length_bias": -0.1},
            {"n_users": 5, "data_scale": 0.0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)

    @pytest.mark.parametrize("field", ["data_in_range", "data_out_range"])
    @pytest.mark.parametrize(
        "bounds",
        [(-3.0, -1.0), (-0.5, 1.0), (2.0, 1.0), (0.0, np.inf), (np.nan, 1.0)],
        ids=["negative", "negative_lo", "reversed", "infinite", "nan"],
    )
    def test_invalid_data_ranges(self, field, bounds):
        with pytest.raises(ValueError, match=field):
            WorkloadSpec(n_users=5, **{field: bounds})

    def test_degenerate_data_ranges_accepted(self, net, eshop_app):
        spec = WorkloadSpec(
            n_users=20, data_in_range=(0.0, 0.0), data_out_range=(1.5, 1.5)
        )
        reqs = generate_requests(net, eshop_app, spec, rng=0)
        assert (reqs.data_in == 0.0).all()
        assert (reqs.data_out == 1.5).all()


class TestPlaceUsers:
    def test_shape_and_range(self, net):
        homes = place_users(net, 100, rng=0)
        assert homes.shape == (100,)
        assert homes.min() >= 0 and homes.max() < net.n

    def test_deterministic(self, net):
        assert np.array_equal(place_users(net, 50, rng=3), place_users(net, 50, rng=3))

    def test_hotspots_concentrate_demand(self, net):
        homes = place_users(net, 5000, rng=0, hotspot_fraction=0.2, hotspot_weight=50.0)
        counts = np.bincount(homes, minlength=net.n)
        # ~2 hotspot cells should hold the majority of users
        top2 = np.sort(counts)[-2:].sum()
        assert top2 > 0.5 * len(homes)

    def test_uniform_when_weight_one(self, net):
        homes = place_users(net, 9000, rng=0, hotspot_weight=1.0)
        counts = np.bincount(homes, minlength=net.n)
        assert counts.min() > 0.5 * counts.max()


class TestGenerateRequests:
    def test_count_and_indices(self, net, eshop_app):
        reqs = generate_requests(net, eshop_app, WorkloadSpec(n_users=25), rng=0)
        assert len(reqs) == 25
        assert [r.index for r in reqs] == list(range(25))

    def test_chain_bounds(self, net, eshop_app):
        spec = WorkloadSpec(n_users=40, min_chain=2, max_chain=4)
        reqs = generate_requests(net, eshop_app, spec, rng=0)
        assert all(2 <= r.length <= 4 for r in reqs)

    def test_chains_follow_app_edges(self, net, eshop_app):
        reqs = generate_requests(net, eshop_app, WorkloadSpec(n_users=30), rng=1)
        edges = set(eshop_app.dependency_edges)
        for req in reqs:
            for e in req.edges:
                assert e in edges

    def test_data_ranges(self, net, eshop_app):
        spec = WorkloadSpec(
            n_users=30, data_in_range=(2.0, 3.0), data_out_range=(0.5, 1.0)
        )
        reqs = generate_requests(net, eshop_app, spec, rng=2)
        assert all(2.0 <= r.data_in <= 3.0 for r in reqs)
        assert all(0.5 <= r.data_out <= 1.0 for r in reqs)

    def test_data_scale_multiplies(self, net, eshop_app):
        base = generate_requests(net, eshop_app, WorkloadSpec(n_users=10), rng=5)
        scaled = generate_requests(
            net, eshop_app, WorkloadSpec(n_users=10, data_scale=10.0), rng=5
        )
        assert all(
            s.data_in == pytest.approx(10.0 * b.data_in)
            for b, s in zip(base, scaled)
        )

    def test_homes_override(self, net, eshop_app):
        homes = np.array([4] * 10)
        reqs = generate_requests(
            net, eshop_app, WorkloadSpec(n_users=10), rng=0, homes=homes
        )
        assert all(r.home == 4 for r in reqs)

    def test_homes_shape_mismatch(self, net, eshop_app):
        with pytest.raises(ValueError, match="homes must have shape"):
            generate_requests(
                net, eshop_app, WorkloadSpec(n_users=10), rng=0, homes=[1, 2]
            )

    def test_deterministic(self, net, eshop_app):
        a = generate_requests(net, eshop_app, WorkloadSpec(n_users=15), rng=9)
        b = generate_requests(net, eshop_app, WorkloadSpec(n_users=15), rng=9)
        assert [(r.home, r.chain, r.data_in) for r in a] == [
            (r.home, r.chain, r.data_in) for r in b
        ]

    def test_reindex(self, net, eshop_app):
        reqs = generate_requests(net, eshop_app, WorkloadSpec(n_users=5), rng=0)
        subset = reindex_requests(reqs[2:])
        assert [r.index for r in subset] == [0, 1, 2]
        assert subset[0].chain == reqs[2].chain
