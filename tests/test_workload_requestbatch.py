"""Tests for the columnar RequestBatch and the batched generator."""

import numpy as np
import pytest
from scipy.stats import chisquare

from repro.microservices.chains import chain_catalog, enumerate_chains, sample_chain
from repro.microservices.eshop import eshop_application
from repro.network import grid_topology
from repro.workload import (
    RequestBatch,
    WorkloadSpec,
    generate_requests,
)
from repro.workload.requests import (
    UserRequest,
    data_demand_matrix,
    demand_matrix,
)


@pytest.fixture
def net():
    return grid_topology(3, 3, seed=1)


@pytest.fixture
def app():
    return eshop_application()


def _manual_batch() -> RequestBatch:
    reqs = [
        UserRequest(0, 2, (0, 1, 3), 1.5, 0.5, (0.3, 0.4)),
        UserRequest(1, 0, (2,), 2.0, 1.0, ()),
        UserRequest(2, 1, (1, 4), 0.5, 0.25, (0.1,)),
    ]
    return RequestBatch.from_requests(reqs)


class TestRequestBatchViews:
    def test_round_trip_from_requests(self):
        batch = _manual_batch()
        assert batch.n_requests == 3
        assert len(batch) == 3
        assert batch[0].chain == (0, 1, 3)
        assert batch[0].edge_data == (0.3, 0.4)
        assert batch[1].chain == (2,)
        assert batch[1].edge_data == ()
        assert batch[2].home == 1
        assert batch[2].data_in == 0.5

    def test_views_are_memoized(self):
        batch = _manual_batch()
        assert batch[1] is batch[1]

    def test_negative_index(self):
        batch = _manual_batch()
        assert batch[-1] is batch[2]

    def test_slice_returns_views(self):
        batch = _manual_batch()
        tail = batch[1:]
        assert isinstance(tail, list)
        assert [r.index for r in tail] == [1, 2]

    def test_iteration_and_sequence_protocol(self):
        batch = _manual_batch()
        assert [r.index for r in batch] == [0, 1, 2]
        assert batch[0] in batch

    def test_lengths_and_offsets(self):
        batch = _manual_batch()
        assert np.array_equal(batch.lengths, [3, 1, 2])
        assert np.array_equal(batch.chain_offsets, [0, 3, 4, 6])
        assert np.array_equal(batch.edge_offsets, [0, 2, 2, 3])

    def test_arrays_read_only(self):
        batch = _manual_batch()
        with pytest.raises(ValueError):
            batch.chains[0] = 5
        with pytest.raises(ValueError):
            batch.data_in[0] = 5.0


class TestRequestBatchValidation:
    def test_repeated_service_rejected(self):
        with pytest.raises(ValueError, match="repeated services"):
            RequestBatch(
                index=np.array([0]),
                homes=np.array([0]),
                chains=np.array([1, 2, 1]),
                chain_offsets=np.array([0, 3]),
                data_in=np.array([1.0]),
                data_out=np.array([1.0]),
                edge_data=np.array([0.1, 0.1]),
            )

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one microservice"):
            RequestBatch(
                index=np.array([0]),
                homes=np.array([0]),
                chains=np.array([], dtype=np.int64),
                chain_offsets=np.array([0, 0]),
                data_in=np.array([1.0]),
                data_out=np.array([1.0]),
                edge_data=np.array([], dtype=np.float64),
            )

    def test_edge_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="edge_data"):
            RequestBatch(
                index=np.array([0]),
                homes=np.array([0]),
                chains=np.array([1, 2]),
                chain_offsets=np.array([0, 2]),
                data_in=np.array([1.0]),
                data_out=np.array([1.0]),
                edge_data=np.array([], dtype=np.float64),
            )

    def test_negative_data_rejected(self):
        with pytest.raises(ValueError):
            RequestBatch(
                index=np.array([0]),
                homes=np.array([0]),
                chains=np.array([1]),
                chain_offsets=np.array([0, 1]),
                data_in=np.array([-1.0]),
                data_out=np.array([1.0]),
                edge_data=np.array([], dtype=np.float64),
            )

    def test_chains_offsets_mismatch_is_value_error(self):
        """A CSR chains/offsets disagreement must raise, not silently
        produce a batch whose views read out of bounds."""
        with pytest.raises(ValueError, match="chains length"):
            RequestBatch(
                index=np.arange(2),
                homes=np.zeros(2, dtype=np.int64),
                chains=np.array([0, 1, 2]),
                chain_offsets=np.array([0, 2, 4]),
                data_in=np.ones(2),
                data_out=np.ones(2),
                edge_data=np.ones(2),
            )

    def test_offsets_wrong_shape_is_value_error(self):
        with pytest.raises(ValueError, match="chain_offsets"):
            RequestBatch(
                index=np.arange(2),
                homes=np.zeros(2, dtype=np.int64),
                chains=np.array([0, 1]),
                chain_offsets=np.array([0, 1]),
                data_in=np.ones(2),
                data_out=np.ones(2),
                edge_data=np.array([], dtype=np.float64),
            )

    def test_offsets_not_starting_at_zero_is_value_error(self):
        with pytest.raises(ValueError, match="starting at 0"):
            RequestBatch(
                index=np.array([0]),
                homes=np.array([0]),
                chains=np.array([1]),
                chain_offsets=np.array([1, 2]),
                data_in=np.array([1.0]),
                data_out=np.array([1.0]),
                edge_data=np.array([], dtype=np.float64),
            )

    @pytest.mark.parametrize("column", ["data_in", "data_out", "edge_data"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_rejected(self, column, bad):
        cols = {
            "data_in": np.array([1.0, 1.0]),
            "data_out": np.array([1.0, 1.0]),
            "edge_data": np.array([1.0, 1.0]),
        }
        cols[column] = np.array([1.0, bad])
        with pytest.raises(ValueError, match=f"{column} must be finite"):
            RequestBatch(
                index=np.arange(2),
                homes=np.zeros(2, dtype=np.int64),
                chains=np.array([0, 1, 0, 1]),
                chain_offsets=np.array([0, 2, 4]),
                **cols,
            )


def _empty_batch() -> RequestBatch:
    return RequestBatch(
        index=np.empty(0, dtype=np.int64),
        homes=np.empty(0, dtype=np.int64),
        chains=np.empty(0, dtype=np.int64),
        chain_offsets=np.zeros(1, dtype=np.int64),
        data_in=np.empty(0),
        data_out=np.empty(0),
        edge_data=np.empty(0),
    )


class TestRequestBatchConcat:
    def test_concat_with_empty_batches(self):
        batch = _manual_batch()
        merged = RequestBatch.concat([_empty_batch(), batch, _empty_batch()])
        assert merged.n_requests == batch.n_requests
        assert np.array_equal(merged.chains, batch.chains)
        assert np.array_equal(merged.chain_offsets, batch.chain_offsets)
        assert np.array_equal(merged.edge_data, batch.edge_data)

    def test_concat_all_empty(self):
        merged = RequestBatch.concat([_empty_batch(), _empty_batch()])
        assert merged.n_requests == 0
        assert merged.chain_offsets.tolist() == [0]

    def test_concat_renumbers_index(self):
        a = _manual_batch()
        merged = RequestBatch.concat([a, a])
        assert merged.index.tolist() == list(range(2 * a.n_requests))
        assert merged[3].chain == a[0].chain
        assert merged[3].edge_data == a[0].edge_data

    def test_concat_no_batches_rejected(self):
        with pytest.raises(ValueError, match="at least one batch"):
            RequestBatch.concat([])

    def test_concat_non_batch_rejected(self):
        with pytest.raises(TypeError, match="RequestBatch"):
            RequestBatch.concat([_manual_batch(), "nope"])


class TestRequestBatchDemand:
    def test_demand_matrices_match_per_request_loop(self, net, app):
        batch = generate_requests(net, app, WorkloadSpec(n_users=40), rng=7)
        S, N = app.n_services, net.n
        assert np.array_equal(
            batch.demand_counts(S, N), demand_matrix(batch, S, N)
        )
        assert np.array_equal(
            batch.demand_data(S, N), data_demand_matrix(batch, S, N)
        )

    def test_padded_matrices_match_views(self, net, app):
        batch = generate_requests(net, app, WorkloadSpec(n_users=20), rng=3)
        cm = batch.padded_chain_matrix()
        em = batch.padded_edge_matrix()
        width = int(batch.lengths.max())
        assert cm.shape == (len(batch), width)
        for h, req in enumerate(batch):
            assert tuple(cm[h, : req.length]) == req.chain
            assert (cm[h, req.length :] == -1).all()
            assert tuple(em[h, : req.length - 1]) == req.edge_data


class TestGenerateRequests:
    def test_returns_columnar_batch(self, net, app):
        reqs = generate_requests(net, app, WorkloadSpec(n_users=15), rng=0)
        assert isinstance(reqs, RequestBatch)
        assert len(reqs) == 15

    def test_views_match_columns(self, net, app):
        reqs = generate_requests(net, app, WorkloadSpec(n_users=15), rng=0)
        for h, r in enumerate(reqs):
            assert r.index == h
            assert r.home == reqs.homes[h]
            assert r.data_in == reqs.data_in[h]
            lo, hi = reqs.chain_offsets[h], reqs.chain_offsets[h + 1]
            assert r.chain == tuple(reqs.chains[lo:hi].tolist())

    def test_deterministic_by_seed(self, net, app):
        a = generate_requests(net, app, WorkloadSpec(n_users=10), rng=42)
        b = generate_requests(net, app, WorkloadSpec(n_users=10), rng=42)
        assert np.array_equal(a.chains, b.chains)
        assert np.array_equal(a.edge_data, b.edge_data)
        assert np.array_equal(a.data_in, b.data_in)


#: Significance level of the chi-square tests at their fixed seeds.
ALPHA = 1e-3


def _catalog_counts(catalog, chains):
    """Counts of ``chains`` (an iterable of tuples) per catalog entry."""
    index = {c: k for k, c in enumerate(catalog)}
    counts = np.zeros(len(catalog), dtype=np.int64)
    for chain, n in chains:
        counts[index[chain]] += n  # KeyError: a chain outside the catalog
    return counts


class TestGenerateRequestBatch:
    """The batched chain-catalog sampler behind ``generate_requests``."""

    def test_basic_shape_and_bounds(self, net, app):
        spec = WorkloadSpec(n_users=200, min_chain=2, max_chain=5)
        batch = generate_requests(net, app, spec, rng=0)
        assert isinstance(batch, RequestBatch)
        assert len(batch) == 200
        assert batch.lengths.min() >= 2
        assert batch.lengths.max() <= 5
        assert batch.homes.min() >= 0 and batch.homes.max() < net.n
        assert (batch.data_in > 0).all()
        assert (batch.edge_data >= 0).all()

    def test_chains_are_valid(self, net, app):
        spec = WorkloadSpec(n_users=100, min_chain=1, max_chain=4)
        batch = generate_requests(net, app, spec, rng=1)
        valid = set(enumerate_chains(app, max_length=4))
        for r in batch:
            assert r.chain in valid

    def test_deterministic_by_seed(self, net, app):
        spec = WorkloadSpec(n_users=50)
        a = generate_requests(net, app, spec, rng=9)
        b = generate_requests(net, app, spec, rng=9)
        assert np.array_equal(a.chains, b.chains)
        assert np.array_equal(a.edge_data, b.edge_data)

    def test_homes_override(self, net, app):
        homes = np.zeros(30, dtype=np.int64)
        batch = generate_requests(
            net, app, WorkloadSpec(n_users=30), rng=2, homes=homes
        )
        assert (batch.homes == 0).all()

    @pytest.fixture(scope="class")
    def large(self):
        """200k requests at a fixed seed, with the catalog they sample."""
        net, app = grid_topology(3, 3, seed=1), eshop_application()
        spec = WorkloadSpec(n_users=200_000, data_scale=2.0)
        catalog, probs = chain_catalog(
            app, spec.length_bias, spec.min_chain, spec.max_chain
        )
        return app, spec, catalog, probs, generate_requests(net, app, spec, rng=0)

    def test_marginal_chain_distribution_matches_catalog(self, large):
        """Chi-square of 200k sampled chains against the catalog's
        probabilities (every expected count is above 250)."""
        _, spec, catalog, probs, batch = large
        rows, n = np.unique(
            batch.padded_chain_matrix(), axis=0, return_counts=True
        )
        chains = (tuple(int(a) for a in row if a >= 0) for row in rows)
        counts = _catalog_counts(catalog, zip(chains, n))
        assert counts.sum() == spec.n_users
        assert chisquare(counts, probs * spec.n_users).pvalue > ALPHA

    def test_sample_chain_matches_catalog(self, app):
        """The reference walk draws from the same catalog: 50k walks,
        chi-square (every expected count is above 65)."""
        spec = WorkloadSpec(n_users=1)
        catalog, probs = chain_catalog(
            app, spec.length_bias, spec.min_chain, spec.max_chain
        )
        gen = np.random.default_rng(0)
        n = 50_000
        walks = [
            sample_chain(app, gen, spec.length_bias, spec.min_chain, spec.max_chain)
            for _ in range(n)
        ]
        counts = _catalog_counts(catalog, ((c, 1) for c in walks))
        assert chisquare(counts, probs * n).pvalue > ALPHA

    def test_data_means_match_closed_form(self, large):
        app, spec, catalog, probs, batch = large
        n = spec.n_users
        for got, (lo, hi) in (
            (batch.data_in, spec.data_in_range),
            (batch.data_out, spec.data_out_range),
        ):
            sd = spec.data_scale * (hi - lo) / np.sqrt(12.0)
            mean = spec.data_scale * (lo + hi) / 2.0
            assert abs(got.mean() - mean) < 5.0 * sd / np.sqrt(n)
            assert got.min() >= spec.data_scale * lo
            assert got.max() <= spec.data_scale * hi
        # the noise has mean zero, so an edge leaving service a carries
        # data_scale * data_out[a] on average; pooled over every edge of
        # the workload that is a ratio of catalog expectations
        dout = np.array([app.service(i).data_out for i in range(app.n_services)])
        edge_sum = sum(p * dout[list(c[:-1])].sum() for c, p in zip(catalog, probs))
        n_edges = sum(p * (len(c) - 1) for c, p in zip(catalog, probs))
        expected = spec.data_scale * edge_sum / n_edges
        assert batch.edge_data.size == (batch.lengths - 1).sum()
        assert batch.edge_data.mean() == pytest.approx(expected, rel=5e-3)
