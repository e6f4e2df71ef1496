"""Tests for batch concat and the streaming window generator."""

import numpy as np
import pytest

from repro.microservices.eshop import eshop_application
from repro.network import grid_topology
from repro.workload import (
    RequestBatch,
    WorkloadSpec,
    generate_request_windows,
    generate_requests,
    place_users,
)
from repro.workload.requests import UserRequest


@pytest.fixture
def net():
    return grid_topology(3, 3, seed=1)


@pytest.fixture
def app():
    return eshop_application()


def _manual_batch(start: int = 0) -> RequestBatch:
    reqs = [
        UserRequest(start, 2, (0, 1, 3), 1.5, 0.5, (0.3, 0.4)),
        UserRequest(start + 1, 0, (2,), 2.0, 1.0, ()),
        UserRequest(start + 2, 1, (1, 4), 0.5, 0.25, (0.1,)),
    ]
    return RequestBatch.from_requests(reqs)


class TestConcat:
    def test_round_trip_single(self):
        b = _manual_batch()
        c = RequestBatch.concat([b])
        assert c.n_requests == b.n_requests
        for name in ("homes", "chains", "chain_offsets", "data_in",
                     "data_out", "edge_data", "edge_offsets"):
            assert np.array_equal(getattr(c, name), getattr(b, name))

    def test_two_batches_preserve_rows(self):
        a, b = _manual_batch(), _manual_batch(3)
        c = RequestBatch.concat([a, b])
        assert c.n_requests == 6
        # index is renumbered 0..n-1 regardless of input numbering
        assert np.array_equal(c.index, np.arange(6))
        for i, req in enumerate(list(a) + list(b)):
            got = c[i]
            assert got.home == req.home
            assert got.chain == req.chain
            assert got.data_in == req.data_in
            assert got.edge_data == req.edge_data

    def test_offsets_rebased(self):
        a, b = _manual_batch(), _manual_batch()
        c = RequestBatch.concat([a, b])
        lens = np.diff(c.chain_offsets)
        assert lens.tolist() == [3, 1, 2, 3, 1, 2]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            RequestBatch.concat([])

    def test_non_batch_rejected(self):
        with pytest.raises(TypeError):
            RequestBatch.concat([_manual_batch(), "nope"])


class TestWindows:
    def test_window_sizes(self, net, app):
        spec = WorkloadSpec(n_users=10)
        wins = list(generate_request_windows(
            net, app, spec, rng=0, window_size=4
        ))
        assert [w.n_requests for w in wins] == [4, 4, 2]

    def test_concat_of_windows_is_valid(self, net, app):
        spec = WorkloadSpec(n_users=13)
        wins = list(generate_request_windows(
            net, app, spec, rng=2, window_size=5
        ))
        full = RequestBatch.concat(wins)
        assert full.n_requests == 13
        assert np.array_equal(full.index, np.arange(13))
        # validation re-runs on the concatenated batch; chains obey the app
        assert full.chains.max() < app.n_services

    def test_deterministic_by_seed(self, net, app):
        spec = WorkloadSpec(n_users=12)
        a = RequestBatch.concat(list(
            generate_request_windows(net, app, spec, rng=7, window_size=5)
        ))
        b = RequestBatch.concat(list(
            generate_request_windows(net, app, spec, rng=7, window_size=5)
        ))
        for name in ("homes", "chains", "chain_offsets", "data_in",
                     "data_out", "edge_data"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_homes_match_sequential_placement(self, net, app):
        """Windows reuse one placement pass, so homes across windows equal
        a single place_users call with the same seed."""
        spec = WorkloadSpec(n_users=11)
        wins = list(generate_request_windows(
            net, app, spec, rng=3, window_size=4
        ))
        homes = np.concatenate([w.homes for w in wins])
        expected = place_users(
            net, spec.n_users, np.random.default_rng(3),
            hotspot_fraction=spec.hotspot_fraction,
            hotspot_weight=spec.hotspot_weight,
        )
        assert np.array_equal(homes, expected)

    def test_homes_override(self, net, app):
        spec = WorkloadSpec(n_users=6)
        homes = np.array([0, 1, 2, 3, 4, 5])
        wins = list(generate_request_windows(
            net, app, spec, rng=0, window_size=4, homes=homes
        ))
        got = np.concatenate([w.homes for w in wins])
        assert np.array_equal(got, homes)

    def test_bad_window_size(self, net, app):
        spec = WorkloadSpec(n_users=5)
        with pytest.raises(ValueError):
            list(generate_request_windows(
                net, app, spec, rng=0, window_size=0
            ))

    def test_matches_batch_generator_shape(self, net, app):
        """A window stream covers the same request count and data ranges
        as the one-shot generator (bit-compat is not promised)."""
        spec = WorkloadSpec(n_users=20, data_scale=2.0)
        full = generate_requests(net, app, spec, rng=0)
        wins = RequestBatch.concat(list(
            generate_request_windows(net, app, spec, rng=0, window_size=8)
        ))
        assert wins.n_requests == full.n_requests
        assert wins.data_in.min() >= 0
        assert wins.chains.max() < app.n_services
