"""Property-based tests: the columnar request builders against per-request loops.

``RequestBatch`` is the only request representation a
``ProblemInstance`` holds, so every derived request array is built from
its columns.  The loops below are the per-request reference for those
builders; each property checks bit-identity on random workloads with
mixed chain widths, including 1-service chains that have no edges.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.storage import order_factor
from repro.microservices import Application, Microservice
from repro.model import ProblemInstance
from repro.network import grid_topology
from repro.workload import RequestBatch, UserRequest
from repro.workload.requests import data_demand_matrix, demand_matrix

_volumes = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


def _app(n_services: int) -> Application:
    services = [
        Microservice(
            i, f"s{i}", compute=1.0, storage=1.0, deploy_cost=100.0, data_out=1.0
        )
        for i in range(n_services)
    ]
    deps = [(i, i + 1) for i in range(n_services - 1)]
    return Application(services, deps, entrypoints=[0])


@st.composite
def workloads(draw):
    n_services = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=3))
    net = grid_topology(1, cols, seed=0)
    n_requests = draw(st.integers(min_value=1, max_value=8))
    reqs = []
    for h in range(n_requests):
        chain = tuple(draw(st.lists(
            st.integers(min_value=0, max_value=n_services - 1),
            min_size=1, max_size=n_services, unique=True,
        )))
        reqs.append(UserRequest(
            index=h,
            home=draw(st.integers(min_value=0, max_value=net.n - 1)),
            chain=chain,
            data_in=draw(_volumes),
            data_out=draw(_volumes),
            edge_data=tuple(draw(_volumes) for _ in range(len(chain) - 1)),
        ))
    return net, _app(n_services), reqs


def chain_matrix_loop(reqs):
    width = max(r.length for r in reqs)
    mat = np.full((len(reqs), width), -1, dtype=np.int64)
    for h, req in enumerate(reqs):
        mat[h, : req.length] = req.chain
    return mat


def edge_matrix_loop(reqs):
    width = max(r.length for r in reqs)
    mat = np.zeros((len(reqs), max(width - 1, 1)), dtype=np.float64)
    for h, req in enumerate(reqs):
        if req.edge_data:
            mat[h, : len(req.edge_data)] = req.edge_data
    return mat


def inflow_matrix_loop(reqs):
    width = max(r.length for r in reqs)
    mat = np.zeros((len(reqs), width), dtype=np.float64)
    for h, req in enumerate(reqs):
        mat[h, 0] = req.data_in
        for j, d in enumerate(req.edge_data):
            mat[h, j + 1] = d
    return mat


def _assert_identical(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(workloads())
def test_batch_builders_match_loops(workload):
    net, app, reqs = workload
    S, N = app.n_services, net.n
    batch = RequestBatch.from_requests(reqs)
    _assert_identical(batch.padded_chain_matrix(), chain_matrix_loop(reqs))
    _assert_identical(batch.padded_edge_matrix(), edge_matrix_loop(reqs))
    _assert_identical(batch.demand_counts(S, N), demand_matrix(reqs, S, N))
    _assert_identical(batch.demand_data(S, N), data_demand_matrix(reqs, S, N))


@settings(max_examples=60, deadline=None)
@given(workloads())
def test_instance_arrays_match_loops(workload):
    net, app, reqs = workload
    S, N = app.n_services, net.n
    for requests in (reqs, RequestBatch.from_requests(reqs)):
        inst = ProblemInstance(net, app, requests)
        _assert_identical(inst.chain_matrix, chain_matrix_loop(reqs))
        _assert_identical(inst.edge_data_matrix, edge_matrix_loop(reqs))
        _assert_identical(inst.inflow_matrix, inflow_matrix_loop(reqs))
        _assert_identical(inst.demand_counts, demand_matrix(reqs, S, N))
        _assert_identical(inst.demand_data, data_demand_matrix(reqs, S, N))
        _assert_identical(
            inst.homes, np.array([r.home for r in reqs], dtype=np.int64)
        )
        _assert_identical(
            inst.chain_lengths,
            np.array([r.length for r in reqs], dtype=np.int64),
        )
        _assert_identical(
            inst.data_in, np.array([r.data_in for r in reqs], dtype=np.float64)
        )
        _assert_identical(
            inst.data_out,
            np.array([r.data_out for r in reqs], dtype=np.float64),
        )


def test_single_service_chains_have_one_zero_edge_column():
    net = grid_topology(1, 2, seed=0)
    reqs = [
        UserRequest(0, 1, (2,), 1.5, 0.5, ()),
        UserRequest(1, 0, (0,), 2.0, 1.0, ()),
    ]
    inst = ProblemInstance(net, _app(3), reqs)
    _assert_identical(inst.chain_matrix, np.array([[2], [0]]))
    _assert_identical(inst.edge_data_matrix, np.zeros((2, 1)))
    _assert_identical(inst.inflow_matrix, np.array([[1.5], [2.0]]))


def order_factor_loop(inst):
    """Per-request reference for ``ProblemInstance.order_factor``."""
    weighted = np.zeros((inst.n_services, inst.n_servers), dtype=np.float64)
    for req in inst.requests:
        chain = req.chain
        for pos, svc in enumerate(chain):
            if len(chain) == 1 or pos == 0:
                w = 3.0
            elif pos == len(chain) - 1:
                w = 2.0
            else:
                w = 1.0
            weighted[svc, req.home] += w
    counts = inst.demand_counts
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, weighted / np.maximum(counts, 1), 0.0)


@settings(max_examples=80, deadline=None)
@given(workloads())
def test_order_factor_matches_loop(workload):
    net, app, reqs = workload
    inst = ProblemInstance(net, app, reqs)
    _assert_identical(inst.order_factor, order_factor_loop(inst))
    assert not inst.order_factor.flags.writeable
    assert order_factor(inst) is inst.order_factor


def test_order_factor_single_service_chains_and_idle_homes():
    net = grid_topology(1, 3, seed=0)
    reqs = [
        UserRequest(0, 0, (2,), 1.0, 1.0, ()),
        UserRequest(1, 0, (2, 0, 1), 1.0, 1.0, (1.0, 1.0)),
        UserRequest(2, 1, (0, 2), 1.0, 1.0, (1.0,)),
        UserRequest(3, 1, (1,), 1.0, 1.0, ()),
    ]
    inst = ProblemInstance(net, _app(3), reqs)
    r = inst.order_factor
    _assert_identical(r, order_factor_loop(inst))
    assert r[2, 0] == 3.0  # first in both chains homed at 0
    assert r[0, 0] == 1.0  # middle
    assert r[1, 0] == 2.0  # last
    assert r[1, 1] == 3.0  # 1-service chain counts as first
    assert r[2, 1] == 2.0
    assert not r[:, 2].any()  # no request is homed at node 2
