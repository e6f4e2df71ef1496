"""Property-based tests for :class:`CombinationState`'s incremental caches.

The combination stage caches reliance rows, ζ rows, hosts, deployment
cost and the batch-routed objective *per service*, invalidating only the
services a mutation touches.  The contract is strict: after **any**
sequence of ``remove`` / ``add`` / ``set_placement`` calls, every
derived quantity must be bit-identical to a state freshly constructed
from the same placement — not approximately equal, since ζ ordering
decides which instances merge.

The batched kernels — one ζ pass over many services and the ``(T, N, D)``
relocation deltas — are checked byte for byte against the per-service
and per-host versions frozen in ``tests/reference_combination.py``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import CombinationState, initial_partition, latency_losses
from repro.core.combination import _relocation_deltas
from repro.core.partition import PartitionResult, ServicePartition
from repro.microservices import Application, Microservice
from repro.model import Placement, ProblemConfig, ProblemInstance
from repro.network import EdgeNetwork, EdgeServer, Link, grid_topology
from repro.workload import UserRequest, WorkloadSpec, generate_requests
from tests.reference_combination import relocation_deltas, zeta_row


def build_instance(seed: int, n_users: int) -> ProblemInstance:
    app = Application(
        [
            Microservice(0, "a", compute=1.0, storage=1.5, deploy_cost=100.0, data_out=2.0),
            Microservice(1, "b", compute=2.0, storage=2.0, deploy_cost=150.0, data_out=1.0),
            Microservice(2, "c", compute=1.5, storage=1.0, deploy_cost=120.0, data_out=0.5),
        ],
        [(0, 1), (1, 2)],
        entrypoints=[0],
    )
    net = grid_topology(2, 3, seed=seed % 4)
    requests = generate_requests(
        net, app, WorkloadSpec(n_users=n_users, max_chain=3), rng=seed
    )
    return ProblemInstance(net, app, requests, ProblemConfig(budget=3000.0))


def draw_placement(draw, inst, min_hosts=1) -> Placement:
    x = np.zeros((inst.n_services, inst.n_servers), dtype=bool)
    for svc in (int(i) for i in inst.requested_services):
        hosts = draw(
            st.sets(
                st.integers(min_value=0, max_value=inst.n_servers - 1),
                min_size=min_hosts,
                max_size=inst.n_servers,
            )
        )
        for k in hosts:
            x[svc, k] = True
    return Placement(x)


@st.composite
def instances_with_placements(draw):
    seed = draw(st.integers(min_value=0, max_value=20))
    n_users = draw(st.integers(min_value=3, max_value=12))
    inst = build_instance(seed, n_users)
    return inst, draw_placement(draw, inst)


def assert_state_equals_fresh(state: CombinationState) -> None:
    """Every cached quantity must be bitwise equal to a fresh recompute."""
    fresh = CombinationState(state.instance, state.partitions, state.placement)
    assert np.array_equal(state.reliance, fresh.reliance)
    z_inc = latency_losses(state)
    z_fresh = latency_losses(fresh)
    assert list(z_inc) == list(z_fresh)  # same keys in the same order
    for key in z_fresh:
        assert z_inc[key] == z_fresh[key], key  # exact, not approx
    assert state.cost() == fresh.cost()
    assert state.objective("reliance") == fresh.objective("reliance")
    assert state.objective("optimal") == fresh.objective("optimal")


@settings(max_examples=20, deadline=None)
@given(pair=instances_with_placements(), data=st.data())
def test_incremental_state_matches_fresh_after_mutations(pair, data):
    inst, placement = pair
    partitions = initial_partition(inst)
    state = CombinationState(inst, partitions, placement)
    # populate all caches before mutating so staleness would be caught
    latency_losses(state)
    state.objective("optimal")

    n_steps = data.draw(st.integers(min_value=1, max_value=5), label="steps")
    for _ in range(n_steps):
        op = data.draw(st.sampled_from(["remove", "add", "set"]), label="op")
        if op == "set":
            state.set_placement(draw_placement(data.draw, inst))
        else:
            svc = data.draw(
                st.integers(min_value=0, max_value=inst.n_services - 1),
                label="service",
            )
            node = data.draw(
                st.integers(min_value=0, max_value=inst.n_servers - 1),
                label="node",
            )
            if state.placement.has(svc, node):
                if state.placement.instance_count(svc) > 1:
                    state.remove(svc, node)
            else:
                state.add(svc, node)
        assert_state_equals_fresh(state)


@settings(max_examples=15, deadline=None)
@given(pair=instances_with_placements())
def test_set_placement_only_invalidates_changed_services(pair):
    """An identical placement swap must keep every ζ row cached."""
    inst, placement = pair
    partitions = initial_partition(inst)
    state = CombinationState(inst, partitions, placement)
    latency_losses(state)
    cached = set(state._zeta_rows)
    state.set_placement(placement.copy())
    assert set(state._zeta_rows) == cached


def build_tied_instance(seed: int, n_users: int) -> ProblemInstance:
    """Identical servers on a complete graph of identical links, and
    identical data volumes: most ζ keys and costs tie exactly."""
    app = build_instance(0, 3).app
    n = 5
    servers = [EdgeServer(k, compute=10.0, storage=10.0) for k in range(n)]
    links = [
        Link(a, b, bandwidth=20.0, gain=2.0) for a in range(n) for b in range(a + 1, n)
    ]
    rng = np.random.default_rng(seed)
    chains = [(0,), (0, 1), (0, 1, 2)]
    requests = []
    for h in range(n_users):
        chain = chains[int(rng.integers(0, 3))]
        requests.append(
            UserRequest(
                h,
                home=int(rng.integers(0, n)),
                chain=chain,
                data_in=1.0,
                data_out=1.0,
                edge_data=(1.0,) * (len(chain) - 1),
            )
        )
    return ProblemInstance(
        EdgeNetwork(servers, links), app, requests, ProblemConfig(budget=3000.0)
    )


def draw_partitions(draw, inst) -> PartitionResult:
    """Alg. 1's partitions with some services dropped (no partition) and
    some regrouped at random (nodes outside every group included)."""
    base = initial_partition(inst)
    out = {}
    for svc, part in base.by_service.items():
        kind = draw(st.sampled_from(["alg1", "none", "random"]), label="partition")
        if kind == "none":
            continue
        if kind == "random":
            labels = draw(
                st.lists(
                    st.integers(-1, 2), min_size=inst.n_servers, max_size=inst.n_servers
                ),
                label="labels",
            )
            groups = [
                [v for v, g in enumerate(labels) if g == s]
                for s in range(max(labels) + 1)
            ]
            part = ServicePartition(svc, groups, [set() for _ in groups], part.xi)
        out[svc] = part
    return PartitionResult(out)


def build_wide_instance(seed: int, n_users: int) -> ProblemInstance:
    """25 servers: with few hosts, many demand nodes pick the same host,
    so per-host segments run long (past NumPy's 8-wide pairwise blocks)."""
    small = build_instance(0, 3)
    net = grid_topology(5, 5, seed=seed % 4)
    requests = generate_requests(
        net, small.app, WorkloadSpec(n_users=n_users, max_chain=3), rng=seed
    )
    return ProblemInstance(net, small.app, requests, ProblemConfig(budget=3000.0))


@st.composite
def states_for_batches(draw):
    seed = draw(st.integers(min_value=0, max_value=20))
    kind = draw(st.sampled_from(["grid", "tied", "wide"]), label="shape")
    if kind == "wide":
        inst = build_wide_instance(seed, draw(st.integers(40, 120), label="users"))
        x = np.zeros((inst.n_services, inst.n_servers), dtype=bool)
        for svc in (int(i) for i in inst.requested_services):
            hosts = draw(st.sets(st.integers(0, inst.n_servers - 1), min_size=1, max_size=3))
            x[svc, list(hosts)] = True
        placement = Placement(x)
    else:
        # one user gives every service a single demand node
        n_users = draw(st.integers(min_value=1, max_value=12))
        build = build_tied_instance if kind == "tied" else build_instance
        inst = build(seed, n_users)
        placement = draw_placement(draw, inst)
    return CombinationState(inst, draw_partitions(draw, inst), placement)


def row_bytes(row: dict) -> tuple:
    return list(row), np.array(list(row.values()), dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(state=states_for_batches(), data=st.data())
def test_batched_zeta_matches_frozen_rows(state, data):
    """One ζ pass over many services ≡ the per-service pass, byte for byte."""
    services = [int(i) for i in state.instance.requested_services]
    picked = data.draw(
        st.lists(st.sampled_from(services), min_size=1, unique=True), label="batch"
    )
    state._build_zeta_rows(picked)
    for s in picked:
        assert row_bytes(state._zeta_rows[s]) == row_bytes(zeta_row(state, s)), s
    # the batch of one, through the cache
    one = CombinationState(state.instance, state.partitions, state.placement)
    for s in services:
        assert row_bytes(one._zeta_row(s)) == row_bytes(zeta_row(state, s)), s


def test_tied_instance_has_many_zero_zeta_ties():
    """The tie-heavy shape above does produce tied and zero ζ values."""
    inst = build_tied_instance(3, 12)
    state = CombinationState(inst, initial_partition(inst), Placement.full(inst))
    zetas = list(latency_losses(state).values())
    assert zetas.count(0.0) >= 3
    assert len(set(zetas)) < len(zetas) - 3


@settings(max_examples=60, deadline=None)
@given(
    n_demand=st.integers(1, 12),
    n_servers=st.integers(2, 12),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_relocation_deltas_match_frozen_loop(n_demand, n_servers, seed, data):
    """The ``(T, N, D)`` relocation pass ≡ the per-host loop, byte for byte."""
    rng = np.random.default_rng(seed)
    cost = rng.random((n_demand, n_servers)) * 10.0 ** rng.integers(-3, 4)
    if data.draw(st.booleans(), label="ties"):
        cost = np.round(cost, 1)
    hosts = np.array(
        sorted(
            data.draw(
                st.sets(st.integers(0, n_servers - 1), min_size=1), label="hosts"
            )
        )
    )
    feasible = rng.random(n_servers) < 0.6
    feasible[hosts] = False
    got = _relocation_deltas(cost, hosts, feasible)
    assert got.tobytes() == relocation_deltas(cost, hosts, feasible).tobytes()


@settings(max_examples=20, deadline=None)
@given(state=states_for_batches())
def test_relocation_deltas_match_frozen_loop_on_instances(state):
    """Same check on the cost matrices the relocation pass builds."""
    inst = state.instance
    inv = inst.inv_rate[: inst.n_servers, : inst.n_servers]
    for service in (int(i) for i in inst.requested_services):
        hosts = state.placement.hosts(service)
        demand = np.nonzero(inst.demand_counts[service] > 0)[0]
        cost = (
            inst.demand_data[service][demand][:, None] * inv[demand]
            + inst.demand_counts[service][demand].astype(np.float64)[:, None]
            * (inst.service_compute[service] / inst.network.compute)[None, :]
        )
        feasible = np.ones(inst.n_servers, dtype=bool)
        feasible[hosts] = False
        got = _relocation_deltas(cost, hosts, feasible)
        assert got.tobytes() == relocation_deltas(cost, hosts, feasible).tobytes()
