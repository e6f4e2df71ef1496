"""Property-based equivalence tests for the batched routing engines.

The vectorized kernels in :mod:`repro.model.routing` (star broadcast,
padded whole-workload Viterbi, greedy argmin table) and the incremental
:class:`~repro.model.engine.BatchRouter` promise results *identical* to
the per-request reference DP :func:`~repro.model.routing._route_one` —
including argmin tie-breaking.  Hypothesis drives random instances and
placements (empty services → cloud fallback, single-host services,
mixed chain lengths) through both paths and asserts exact equality.
The batched host table and the batched scoring of several placements
are checked against the per-service and per-candidate versions frozen
in ``tests/reference_combination.py``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.microservices import Application, Microservice
from repro.model import BatchRouter, Placement, ProblemConfig, ProblemInstance
from repro.model.latency import total_latency
from repro.model.routing import _host_table, _route_one, greedy_routing, optimal_routing
from repro.network import grid_topology
from repro.workload import WorkloadSpec, generate_requests
from tests.reference_combination import host_lists, padded_hosts


def build_instance(seed: int, n_users: int, max_chain: int) -> ProblemInstance:
    app = Application(
        [
            Microservice(0, "a", compute=1.0, storage=1.5, deploy_cost=100.0, data_out=2.0),
            Microservice(1, "b", compute=2.0, storage=2.0, deploy_cost=150.0, data_out=1.0),
            Microservice(2, "c", compute=1.5, storage=1.0, deploy_cost=120.0, data_out=0.5),
            Microservice(3, "d", compute=0.5, storage=0.5, deploy_cost=80.0, data_out=1.5),
        ],
        [(0, 1), (1, 2), (0, 3)],
        entrypoints=[0],
    )
    net = grid_topology(2, 3, seed=seed % 4)
    requests = generate_requests(
        net,
        app,
        WorkloadSpec(n_users=n_users, min_chain=1, max_chain=max_chain),
        rng=seed,
    )
    return ProblemInstance(net, app, requests, ProblemConfig(budget=3000.0))


@st.composite
def instances_with_placements(draw):
    seed = draw(st.integers(min_value=0, max_value=30))
    n_users = draw(st.integers(min_value=1, max_value=12))
    max_chain = draw(st.integers(min_value=1, max_value=4))
    inst = build_instance(seed, n_users, max_chain)
    x = np.zeros((inst.n_services, inst.n_servers), dtype=bool)
    for svc in range(inst.n_services):
        # min_size=0 exercises the cloud fallback, 1 the single-host DP
        hosts = draw(
            st.sets(
                st.integers(min_value=0, max_value=inst.n_servers - 1),
                min_size=0,
                max_size=inst.n_servers,
            )
        )
        for k in hosts:
            x[svc, k] = True
    return inst, Placement(x)


def reference_assignment(inst, placement, model) -> np.ndarray:
    """Per-request DP loop — the ground truth the batches must match."""
    hosts = _host_table(inst, placement.matrix)
    a = np.full((inst.n_requests, inst.max_chain), -1, dtype=np.int64)
    for h, req in enumerate(inst.requests):
        nodes = _route_one(inst, req, hosts, inst.inv_rate, inst.compute_ext, model)
        a[h, : nodes.size] = nodes
    return a


@settings(max_examples=40, deadline=None)
@given(pair=instances_with_placements(), model=st.sampled_from(["star", "chain"]))
def test_batch_routing_matches_reference(pair, model):
    inst, placement = pair
    batched = optimal_routing(inst, placement, model=model)
    assert np.array_equal(batched.assignment, reference_assignment(inst, placement, model))


@settings(max_examples=25, deadline=None)
@given(pair=instances_with_placements())
def test_greedy_routing_matches_reference(pair):
    inst, placement = pair
    hosts = host_lists(inst, placement)
    ref = np.full((inst.n_requests, inst.max_chain), -1, dtype=np.int64)
    for h, req in enumerate(inst.requests):
        for j, svc in enumerate(req.chain):
            cand = hosts[svc]
            key = inst.inv_rate[req.home, cand] - 1e-12 * inst.compute_ext[cand]
            ref[h, j] = cand[int(np.argmin(key))]
    assert np.array_equal(greedy_routing(inst, placement).assignment, ref)


@settings(max_examples=25, deadline=None)
@given(
    pair=instances_with_placements(),
    model=st.sampled_from(["star", "chain"]),
    data=st.data(),
)
def test_batch_router_incremental_matches_fresh(pair, model, data):
    """BatchRouter after arbitrary single-service host edits ≡ fresh routing."""
    inst, placement = pair
    router = BatchRouter(inst, model=model)
    assert np.array_equal(
        router.route(placement).assignment,
        reference_assignment(inst, placement, model),
    )
    n_steps = data.draw(st.integers(min_value=1, max_value=4), label="steps")
    for _ in range(n_steps):
        svc = data.draw(
            st.integers(min_value=0, max_value=inst.n_services - 1), label="service"
        )
        node = data.draw(
            st.integers(min_value=0, max_value=inst.n_servers - 1), label="node"
        )
        if placement.has(svc, node):
            placement.remove(svc, node)
        else:
            placement.add(svc, node)
        incremental = router.route(placement).assignment
        fresh = optimal_routing(inst, placement, model=model).assignment
        assert np.array_equal(incremental, fresh)
    # the router must actually be caching: unchanged placements re-route nothing
    before = router.rerouted_services
    router.route(placement)
    assert router.rerouted_services == before


def assert_trial_is_fresh(inst, placement, trial, model):
    """A router trial equals fresh routing and Eq. (2), bit for bit."""
    fresh = optimal_routing(inst, placement, model=model)
    lat = total_latency(inst, fresh, model)
    assert np.array_equal(trial.matrix, placement.matrix)
    assert np.array_equal(trial.assignment, fresh.assignment)
    assert trial.latency.tobytes() == lat.tobytes()
    assert trial.latency_sum == float(lat.sum())


def rows_containing(inst, svc) -> int:
    return int(((inst.chain_matrix == svc) & inst.chain_mask).any(axis=1).sum())


@settings(max_examples=30, deadline=None)
@given(
    pair=instances_with_placements(),
    model=st.sampled_from(["star", "chain"]),
    data=st.data(),
)
def test_batch_router_scores_against_committed_base(pair, model, data):
    """Candidates scored against one base, then one committed ≡ fresh."""
    inst, placement = pair
    router = BatchRouter(inst, model=model)
    router.route(placement)
    trials = []
    for _ in range(data.draw(st.integers(min_value=2, max_value=4), label="cands")):
        cand = placement.copy()
        for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="edits")):
            svc = data.draw(st.integers(0, inst.n_services - 1), label="service")
            node = data.draw(st.integers(0, inst.n_servers - 1), label="node")
            if cand.has(svc, node):
                cand.remove(svc, node)
            else:
                cand.add(svc, node)
        trial = router.score(cand)
        assert_trial_is_fresh(inst, cand, trial, model)
        trials.append((cand, trial))
    # scoring never moved the base: re-scoring the base re-routes nothing
    rows = router.rerouted_rows
    assert_trial_is_fresh(inst, placement, router.score(placement), model)
    assert router.rerouted_rows == rows
    cand, trial = trials[data.draw(st.integers(0, len(trials) - 1), label="winner")]
    router.commit(trial)
    rows = router.rerouted_rows
    assert_trial_is_fresh(inst, cand, router.score(cand), model)
    assert router.rerouted_rows == rows
    # the next candidate is scored against the committed winner
    nxt = cand.copy()
    svc = data.draw(st.integers(0, inst.n_services - 1), label="service")
    node = data.draw(st.integers(0, inst.n_servers - 1), label="node")
    if nxt.has(svc, node):
        nxt.remove(svc, node)
    else:
        nxt.add(svc, node)
    assert_trial_is_fresh(inst, nxt, router.score(nxt), model)


@settings(max_examples=30, deadline=None)
@given(
    pair=instances_with_placements(),
    model=st.sampled_from(["star", "chain"]),
    data=st.data(),
)
def test_batch_router_prunes_pure_removals(pair, model, data):
    """Removing a host re-routes exactly the rows whose route used it."""
    inst, placement = pair
    router = BatchRouter(inst, model=model)
    base = router.route(placement).assignment
    for _ in range(data.draw(st.integers(min_value=1, max_value=5), label="steps")):
        removable = [
            (svc, k) for svc, k in placement.pairs() if placement.instance_count(svc) > 1
        ]
        if not removable:
            break
        svc, k = data.draw(st.sampled_from(removable), label="removal")
        placement.remove(svc, k)
        users = int(((inst.chain_matrix == svc) & (base == k)).any(axis=1).sum())
        assert users <= rows_containing(inst, svc)
        rows = router.rerouted_rows
        trial = router.score(placement)
        assert router.rerouted_rows - rows == users
        assert_trial_is_fresh(inst, placement, trial, model)
        router.commit(trial)
        base = trial.assignment


@settings(max_examples=30, deadline=None)
@given(
    pair=instances_with_placements(),
    model=st.sampled_from(["star", "chain"]),
    data=st.data(),
)
def test_batch_router_reroutes_service_on_cloud_fallback_and_gain(pair, model, data):
    """Emptying a service to the cloud, then giving it hosts, ≡ fresh."""
    inst, placement = pair
    router = BatchRouter(inst, model=model)
    router.route(placement)
    svc = data.draw(st.integers(0, inst.n_services - 1), label="service")
    changed = placement.hosts(svc).size > 0
    for k in placement.hosts(svc):
        placement.remove(svc, k)
    rows = router.rerouted_rows
    trial = router.score(placement)
    assert router.rerouted_rows - rows == (rows_containing(inst, svc) if changed else 0)
    assert_trial_is_fresh(inst, placement, trial, model)
    router.commit(trial)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="gains")):
        node = data.draw(st.integers(0, inst.n_servers - 1), label="node")
        gained = not placement.has(svc, node)
        placement.add(svc, node)
        rows = router.rerouted_rows
        trial = router.score(placement)
        assert router.rerouted_rows - rows == (rows_containing(inst, svc) if gained else 0)
        assert_trial_is_fresh(inst, placement, trial, model)
        router.commit(trial)


def test_batch_router_removal_skips_rows_off_the_lost_instance():
    """A removal re-routes fewer rows than the service's chains hold."""
    inst = build_instance(seed=3, n_users=12, max_chain=4)
    placement = Placement.full(inst)
    for model in ("star", "chain"):
        router = BatchRouter(inst, model=model)
        base = router.route(placement).assignment
        used = base[(inst.chain_matrix == 0) & inst.chain_mask]
        k = int(np.bincount(used).argmax())
        cand = placement.copy()
        cand.remove(0, k)
        rows = router.rerouted_rows
        assert_trial_is_fresh(inst, cand, router.score(cand), model)
        assert 0 < router.rerouted_rows - rows < rows_containing(inst, 0)


@settings(max_examples=40, deadline=None)
@given(pair=instances_with_placements(), data=st.data())
def test_host_table_matches_padded_host_lists(pair, data):
    """The vectorized table ≡ the per-service lists, padded; stacked too."""
    inst, placement = pair
    # a service with no host falls back to the cloud
    empty = placement.copy()
    for k in empty.hosts(0):
        empty.remove(0, k)
    others = [placement, empty]
    for _ in range(data.draw(st.integers(0, 2), label="more")):
        cand = placement.copy()
        svc = data.draw(st.integers(0, inst.n_services - 1), label="service")
        node = data.draw(st.integers(0, inst.n_servers - 1), label="node")
        if cand.has(svc, node):
            cand.remove(svc, node)
        else:
            cand.add(svc, node)
        others.append(cand)
    for p in others:
        pad, valid = _host_table(inst, p.matrix)
        ref_pad, ref_valid = padded_hosts(host_lists(inst, p))
        assert pad.dtype == ref_pad.dtype
        assert np.array_equal(pad, ref_pad)
        assert np.array_equal(valid, ref_valid)
    pad, valid = _host_table(inst, np.stack([p.matrix for p in others]))
    width = pad.shape[-1]
    for c, p in enumerate(others):
        ref_pad, ref_valid = padded_hosts(host_lists(inst, p))
        w = ref_pad.shape[1]
        assert np.array_equal(pad[c, :, :w], ref_pad)
        assert np.array_equal(valid[c, :, :w], ref_valid)
        assert not valid[c, :, w:].any() and not pad[c, :, w:].any()
    assert width == max(padded_hosts(host_lists(inst, p))[0].shape[1] for p in others)


def _toggle(placement, svc, node):
    out = placement.copy()
    if out.has(svc, node):
        out.remove(svc, node)
    else:
        out.add(svc, node)
    return out


def assert_same_trial(a, b):
    assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(a.assignment, b.assignment)
    assert a.latency.tobytes() == b.latency.tobytes()
    assert a.latency_sum == b.latency_sum


@settings(max_examples=40, deadline=None)
@given(
    pair=instances_with_placements(),
    model=st.sampled_from(["star", "chain"]),
    data=st.data(),
)
def test_score_many_matches_per_candidate_and_fresh(pair, model, data):
    """One batched re-route ≡ one ``score`` per candidate ≡ fresh routing.

    The candidates always include one with no stale row (the base
    itself), one whose service falls back to the cloud, and one that
    gains a host; the rest are random edits, as Alg. 5 migrations make.
    """
    inst, placement = pair
    svc = data.draw(st.integers(0, inst.n_services - 1), label="service")
    to_cloud = placement.copy()
    for k in to_cloud.hosts(svc):
        to_cloud.remove(svc, k)
    missing = [k for k in range(inst.n_servers) if not placement.has(svc, k)]
    gained = placement.copy()
    if missing:
        gained.add(svc, data.draw(st.sampled_from(missing), label="gain"))
    cands = [placement.copy(), to_cloud, gained]
    for _ in range(data.draw(st.integers(0, 3), label="extra")):
        cand = placement.copy()
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            cand = _toggle(
                cand,
                data.draw(st.integers(0, inst.n_services - 1), label="s"),
                data.draw(st.integers(0, inst.n_servers - 1), label="n"),
            )
        cands.append(cand)
    order = data.draw(st.permutations(range(len(cands))), label="order")
    cands = [cands[i] for i in order]
    for base_kind in ("scored", "routed"):
        batched = BatchRouter(inst, model=model)
        single = BatchRouter(inst, model=model)
        for r in (batched, single):
            if base_kind == "scored":
                r.score(placement)
            else:
                r.route(placement)
        trials = batched.score_many(cands)
        assert len(trials) == len(cands)
        for cand, trial in zip(cands, trials):
            assert_same_trial(trial, single.score(cand))
            assert_trial_is_fresh(inst, cand, trial, model)
        # the batch re-routes exactly the rows the single calls do
        assert batched.rerouted_rows == single.rerouted_rows
        # scoring committed nothing: the base still routes as before
        rows = batched.rerouted_rows
        batched.score(placement)
        assert batched.rerouted_rows == rows


@settings(max_examples=20, deadline=None)
@given(pair=instances_with_placements(), model=st.sampled_from(["star", "chain"]))
def test_score_many_without_base_commits_the_first(pair, model):
    """With no base, every placement is routed in full; the first becomes
    the base."""
    inst, placement = pair
    other = _toggle(placement, 0, 0)
    router = BatchRouter(inst, model=model)
    trials = router.score_many([placement, other])
    assert router.rerouted_rows == 2 * inst.n_requests
    assert_trial_is_fresh(inst, placement, trials[0], model)
    assert_trial_is_fresh(inst, other, trials[1], model)
    rows = router.rerouted_rows
    assert_same_trial(router.score(placement), trials[0])
    assert router.rerouted_rows == rows
