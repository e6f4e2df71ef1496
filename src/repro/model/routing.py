"""Dependency-aware request routing given a fixed placement.

Once instances are placed, each request must pick one hosting node per
chain position.  Two engines are provided:

* :func:`optimal_routing` — exact minimum-latency assignment per request
  via dynamic programming over chain layers (Viterbi): for the *chain*
  latency model the transition cost couples consecutive positions; for
  the *star* model positions decouple and the DP reduces to independent
  argmins.  This is the routing used when reporting SoCL's final
  objective (the paper: "we optimize routing schedules while calculating
  latency, addressing both microservice dependencies and dynamic edge
  network conditions").
* :func:`greedy_routing` — the paper's reliance rule used inside the
  combination stage: each position independently picks the hosting node
  with the highest channel speed from the user's home
  (``v_q = argmax b(l'_{f(u_h), q})``), ties broken by compute power.

Both engines are *batched*: instead of one Python-level DP per request,
the star model routes every chain position of the whole workload with a
single masked broadcast, and the chain model runs one padded Viterbi over
the entire workload at once — ``max_chain`` layer steps with the requests
as the batch axis, regardless of how many distinct chain signatures
exist.  Results — including argmin tie-breaking — are identical to the
per-request DP (:func:`_route_one`), which remains the reference kernel
and is still used by the sequential :func:`load_aware_routing` engine.

Services without any edge instance fall back to the cloud node.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.model.instance import ProblemInstance
from repro.model.placement import Placement, Routing


def _host_lists(instance: ProblemInstance, placement: Placement) -> list[np.ndarray]:
    """Per-service candidate node arrays (cloud appended when empty)."""
    cloud = instance.cloud
    hosts: list[np.ndarray] = []
    for i in range(instance.n_services):
        h = placement.hosts(i)
        if h.size == 0:
            h = np.array([cloud], dtype=np.int64)
        hosts.append(h)
    return hosts


def _padded_hosts(hosts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-service host arrays into ``(S, Hmax)`` index/valid pair.

    Padding slots repeat index 0 and are masked out by ``valid``; host
    order (ascending node index) is preserved so masked argmins break
    ties exactly like the per-service loops.
    """
    n_services = len(hosts)
    hmax = max(h.size for h in hosts)
    pad = np.zeros((n_services, hmax), dtype=np.int64)
    valid = np.zeros((n_services, hmax), dtype=bool)
    for i, h in enumerate(hosts):
        pad[i, : h.size] = h
        valid[i, : h.size] = True
    return pad, valid


def route_request(
    instance: ProblemInstance,
    placement: Placement,
    h: int,
    model: Optional[str] = None,
    hosts: Optional[list[np.ndarray]] = None,
) -> np.ndarray:
    """Minimum-latency node sequence for request ``h`` (DP over layers).

    Returns an array of extended node indices with length equal to the
    request's chain length.  Thin wrapper over :func:`_route_one`, the
    single-request reference kernel.
    """
    model = model or instance.config.latency_model
    if hosts is None:
        hosts = _host_lists(instance, placement)
    return _route_one(
        instance,
        instance.requests[h],
        hosts,
        instance.inv_rate,
        instance.compute_ext,
        model,
    )


# ----------------------------------------------------------------------
# batched kernels
# ----------------------------------------------------------------------
def _star_assign(
    instance: ProblemInstance,
    hosts: list[np.ndarray],
    comp: np.ndarray,
    a: np.ndarray,
    positions: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> None:
    """Star-model batch kernel: one masked broadcast, no per-request loop.

    Positions decouple under the star model, so every valid ``(h, j)``
    chain position of the workload becomes one row of a flat
    ``(positions, Hmax)`` cost matrix; a single masked argmin yields all
    assignments at once.  ``positions`` (``(rows, columns)`` index
    arrays) restricts the update to those chain positions: the rows of
    :func:`partial_reroute`, or the positions of the changed services
    that :class:`~repro.model.engine.BatchRouter` re-routes.

    A pure ``(service, home)`` argmin table would be even smaller, but it
    is exact only when all requests ship identical data volumes: the
    inflow term ``r·inv[home, k]`` scales with the per-request volume and
    can flip the argmin, so we keep the per-position rows.
    """
    inst = instance
    chain = inst.chain_matrix
    hs, js = np.nonzero(inst.chain_mask) if positions is None else positions
    if hs.size == 0:
        return
    pad, valid = _padded_hosts(hosts)
    inv = inst.inv_rate
    q = inst.service_compute
    svc = chain[hs, js]
    cand = pad[svc]  # (P, Hmax)
    home = inst.homes[hs]
    w_in = inst.inflow_matrix[hs, js]
    last = js == inst.chain_lengths[hs] - 1
    out_w = np.where(last, inst.data_out[hs], 0.0)
    cost = w_in[:, None] * inv[home[:, None], cand] + q[svc][:, None] / comp[cand]
    cost = cost + out_w[:, None] * inv[cand, home[:, None]]
    cost[~valid[svc]] = np.inf
    pick = np.argmin(cost, axis=1)
    a[hs, js] = cand[np.arange(hs.size), pick]


def _chain_assign_batch(
    instance: ProblemInstance,
    hosts: list[np.ndarray],
    comp: np.ndarray,
    a: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> None:
    """Chain-model batch kernel: one padded Viterbi for the whole workload.

    Candidate sets are padded to a common width (``_padded_hosts``) so
    requests with *different* chains share the same layer step: the DP
    advances layer by layer over a ``(requests, prev, cand)`` transition
    tensor — ``max_chain`` vectorized steps total, regardless of how many
    requests or distinct chain signatures exist.  Requests whose chain
    has already ended simply drop out of the active row set (chains are
    contiguous, so the active sets are nested).  Backtracking runs once
    per distinct chain *length* (each request's terminal ``data_out`` leg
    applies at its own last layer).

    Padding slots repeat host index 0; their column costs are forced to
    ``+inf`` after every layer so argmins — taken over candidates in
    ascending host order, padding last — break ties exactly like the
    per-request reference kernel :func:`_route_one`.

    ``rows`` restricts the DP to a subset of requests (incremental
    re-routing); assignments for other requests are left untouched.
    """
    inst = instance
    inv = inst.inv_rate
    q = inst.service_compute
    pad, valid = _padded_hosts(hosts)
    if rows is None:
        chain = inst.chain_matrix
        mask = inst.chain_mask
        homes = inst.homes
        data_in, data_out = inst.data_in, inst.data_out
        edge_w = inst.edge_data_matrix
        lengths = inst.chain_lengths
    else:
        chain = inst.chain_matrix[rows]
        mask = inst.chain_mask[rows]
        homes = inst.homes[rows]
        data_in, data_out = inst.data_in[rows], inst.data_out[rows]
        edge_w = inst.edge_data_matrix[rows]
        lengths = inst.chain_lengths[rows]
    n_rows, n_layers = chain.shape
    if n_rows == 0:
        return
    width = pad.shape[1]
    cols = np.arange(width)

    # forward pass: costs[j] / backs[j-1] restricted to the rows whose
    # chain reaches layer j (``acts[j]``, sorted and nested)
    svc0 = chain[:, 0]
    cand0 = pad[svc0]
    cost = data_in[:, None] * inv[homes[:, None], cand0] + q[svc0][:, None] / comp[cand0]
    cost[~valid[svc0]] = np.inf
    acts: list[np.ndarray] = [np.arange(n_rows)]
    costs: list[np.ndarray] = [cost]
    backs: list[np.ndarray] = []
    for j in range(1, n_layers):
        act = np.nonzero(mask[:, j])[0]
        if act.size == 0:
            break
        prev_pos = np.searchsorted(acts[j - 1], act)
        svc = chain[act, j]
        prev_cand = pad[chain[act, j - 1]]
        cand = pad[svc]
        ew = edge_w[act, j - 1]
        trans = (
            costs[j - 1][prev_pos][:, :, None]
            + ew[:, None, None] * inv[prev_cand[:, :, None], cand[:, None, :]]
            + (q[svc][:, None] / comp[cand])[:, None, :]
        )
        argmin = trans.argmin(axis=1)  # (|act|, width)
        cost = trans[np.arange(act.size)[:, None], argmin, cols[None, :]]
        cost[~valid[svc]] = np.inf
        acts.append(act)
        costs.append(cost)
        backs.append(argmin)

    # terminal leg + backtrack, one vectorized pass per distinct length
    for length in np.unique(lengths):
        length = int(length)
        grp = np.nonzero(lengths == length)[0]
        pos = np.searchsorted(acts[length - 1], grp)
        last_cand = pad[chain[grp, length - 1]]
        final = costs[length - 1][pos] + data_out[grp][:, None] * inv[
            last_cand, homes[grp][:, None]
        ]
        sel = final.argmin(axis=1)
        grp_rows = np.arange(grp.size)
        out_rows = grp if rows is None else rows[grp]
        a[out_rows, length - 1] = last_cand[grp_rows, sel]
        for j in range(length - 1, 0, -1):
            sel = backs[j - 1][np.searchsorted(acts[j], grp), sel]
            a[out_rows, j - 1] = pad[chain[grp, j - 1]][grp_rows, sel]


def optimal_routing(
    instance: ProblemInstance,
    placement: Placement,
    model: Optional[str] = None,
) -> Routing:
    """Exact minimum-latency routing for every request (batched).

    Identical results (including tie-breaking) to running
    :func:`_route_one` per request; see the batch kernels above for how
    the per-request loop is collapsed.
    """
    model = model or instance.config.latency_model
    hosts = _host_lists(instance, placement)
    H, L = instance.n_requests, instance.max_chain
    a = np.full((H, L), -1, dtype=np.int64)
    if model == "star":
        _star_assign(instance, hosts, instance.compute_ext, a)
    else:
        _chain_assign_batch(instance, hosts, instance.compute_ext, a)
    return Routing(instance, a)


def partial_reroute(
    instance: ProblemInstance,
    placement: Placement,
    rows: np.ndarray,
    assignment: np.ndarray,
    model: Optional[str] = None,
) -> Routing:
    """Re-route only ``rows`` against ``placement``; other rows keep their
    existing assignment.

    The workhorse behind resilience-aware warm starts: when a handful of
    requests were routed through instances that later crashed
    (:meth:`repro.core.online.OnlineSoCL.note_failures`), only those
    requests re-run the batched DP — the rest of ``assignment`` is copied
    through untouched, so the call costs ``O(|rows|)`` layer steps
    instead of a full-workload solve.  With ``rows`` covering every
    request this is exactly :func:`optimal_routing`.
    """
    model = model or instance.config.latency_model
    rows = np.asarray(rows, dtype=np.int64)
    a = np.array(assignment, dtype=np.int64, copy=True)
    if rows.size:
        hosts = _host_lists(instance, placement)
        if model == "star":
            hs, js = np.nonzero(instance.chain_mask[rows])
            _star_assign(instance, hosts, instance.compute_ext, a, positions=(rows[hs], js))
        else:
            _chain_assign_batch(instance, hosts, instance.compute_ext, a, rows=rows)
    return Routing(instance, a)


def load_aware_routing(
    instance: ProblemInstance,
    placement: Placement,
    congestion_weight: float = 1.0,
    model: Optional[str] = None,
) -> Routing:
    """Queue-aware routing: optimal per request against a load-inflated
    compute model.

    The analytic latency model (Eq. 2) prices processing at the raw rate
    ``q/c`` regardless of how many requests share a server; under real
    contention (the DES cluster, paper §V.C) concentrating traffic on
    one fast node queues.  This engine routes requests *sequentially*,
    tracking the compute load (GFLOP) already committed to each server
    and inflating each server's effective processing delay by
    ``1 + congestion_weight · load_k / c_k`` — a fluid M/G/1-style
    congestion proxy.  Requests are processed in descending compute
    demand so heavy chains claim capacity first.

    Each step routes through the shared :func:`_route_one` DP kernel;
    the sequential load updates make this the one engine that cannot be
    batched across requests.  With ``congestion_weight=0`` this reduces
    exactly to :func:`optimal_routing`.
    """
    if congestion_weight < 0:
        raise ValueError(
            f"congestion_weight must be non-negative, got {congestion_weight}"
        )
    model = model or instance.config.latency_model
    hosts = _host_lists(instance, placement)
    inv = instance.inv_rate
    base_comp = instance.compute_ext.copy()
    q = instance.service_compute
    H, L = instance.n_requests, instance.max_chain
    a = np.full((H, L), -1, dtype=np.int64)

    load = np.zeros(base_comp.size)
    order = sorted(
        range(H),
        key=lambda h: -float(q[list(instance.requests[h].chain)].sum()),
    )
    for h in order:
        req = instance.requests[h]
        # effective rates under current committed load
        eff = base_comp / (1.0 + congestion_weight * load / base_comp)
        nodes = _route_one(instance, req, hosts, inv, eff, model)
        a[h, : nodes.size] = nodes
        for j, svc in enumerate(req.chain):
            load[nodes[j]] += q[svc]
    return Routing(instance, a)


def _route_one(instance, req, hosts, inv, comp, model) -> np.ndarray:
    """Single-request DP reference kernel.

    The batched engines must stay result-identical to this function; the
    property suite (``tests/test_property_routing_batch.py``) enforces
    the equivalence.  :func:`load_aware_routing` calls it directly.
    """
    q = instance.service_compute
    home = req.home
    if model == "star":
        nodes = np.empty(req.length, dtype=np.int64)
        inflow = [req.data_in, *req.edge_data]
        for j, svc in enumerate(req.chain):
            cand = hosts[svc]
            cost = inflow[j] * inv[home, cand] + q[svc] / comp[cand]
            if j == req.length - 1:
                cost = cost + req.data_out * inv[cand, home]
            nodes[j] = cand[int(np.argmin(cost))]
        return nodes

    cand0 = hosts[req.chain[0]]
    cost = req.data_in * inv[home, cand0] + q[req.chain[0]] / comp[cand0]
    back: list[np.ndarray] = []
    prev_cand = cand0
    for j in range(1, req.length):
        svc = req.chain[j]
        cand = hosts[svc]
        trans = (
            cost[:, None]
            + req.edge_data[j - 1] * inv[np.ix_(prev_cand, cand)]
            + (q[svc] / comp[cand])[None, :]
        )
        argmin = trans.argmin(axis=0)
        back.append(argmin)
        cost = trans[argmin, np.arange(cand.size)]
        prev_cand = cand
    cost = cost + req.data_out * inv[prev_cand, home]
    nodes = np.empty(req.length, dtype=np.int64)
    idx = int(np.argmin(cost))
    nodes[-1] = prev_cand[idx]
    for j in range(req.length - 1, 0, -1):
        idx = int(back[j - 1][idx])
        nodes[j - 1] = hosts[req.chain[j - 1]][idx]
    return nodes


def greedy_routing(
    instance: ProblemInstance,
    placement: Placement,
) -> Routing:
    """Paper-style reliance routing: max channel speed from home.

    Each chain position independently selects the hosting node ``v_q``
    maximizing ``b(l'_{f(u_h), q})`` — i.e. minimizing the transfer
    coefficient ``inv_rate[home, q]`` — with ties broken by higher
    compute power, and the home node itself always preferred (local
    service has infinite channel speed).

    The pick depends only on ``(service, home)``, so a single masked
    argmin builds the full best-host table and the per-request loop
    disappears entirely.
    """
    inst = instance
    hosts = _host_lists(inst, placement)
    pad, valid = _padded_hosts(hosts)  # (S, Hmax)
    inv = inst.inv_rate
    comp = inst.compute_ext
    # key[f, s, c]: transfer coefficient home f → candidate c of service s,
    # compute tie-break folded in; one argmin gives the whole table.
    key = inv[: inst.n_servers, :][:, pad] - 1e-12 * comp[pad][None, :, :]
    key = np.where(valid[None, :, :], key, np.inf)
    pick = np.argmin(key, axis=2)  # (N, S)
    best = pad[np.arange(inst.n_services)[None, :], pick]  # (N, S) node table

    H, L = inst.n_requests, inst.max_chain
    a = np.full((H, L), -1, dtype=np.int64)
    mask = inst.chain_mask
    chain_safe = np.where(mask, inst.chain_matrix, 0)
    assigned = best[inst.homes[:, None], chain_safe]
    a[mask] = assigned[mask]
    return Routing(inst, a)
