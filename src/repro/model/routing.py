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
exist.  Every engine reads a placement's candidate hosts from one padded
host table (:func:`_host_table`, which also stacks several placements).
Results — including argmin tie-breaking — are identical to the
per-request DP (:func:`_route_one`), which remains the reference kernel
and is still used by the sequential :func:`load_aware_routing` engine.

Services without any edge instance fall back to the cloud node.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.model.instance import ProblemInstance
from repro.model.placement import Placement, Routing


def _host_table(
    instance: ProblemInstance, matrices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Padded host table of one or more placements.

    ``matrices`` is a ``(..., S, N)`` stack of placement matrices; the
    result is the ``(..., S, W)`` index/valid pair, ``W`` the widest
    host set.  Each service's hosts come first, in ascending node
    order, so masked argmins over the table break ties like a loop over
    the hosts; padding slots hold index 0 and are masked out by
    ``valid``.  A service with no edge host gets the cloud node.
    """
    mask = np.asarray(matrices, dtype=bool)
    counts = mask.sum(axis=-1)
    width = max(1, int(counts.max(initial=0)))
    order = np.argsort(~mask, axis=-1, kind="stable")[..., :width]
    valid = np.arange(width) < counts[..., None]
    pad = np.where(valid, order, 0)
    empty = counts == 0
    pad[empty, 0] = instance.cloud
    valid[empty, 0] = True
    return pad, valid


def route_request(
    instance: ProblemInstance,
    placement: Placement,
    h: int,
    model: Optional[str] = None,
    hosts: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Minimum-latency node sequence for request ``h`` (DP over layers).

    Returns an array of extended node indices with length equal to the
    request's chain length.  Thin wrapper over :func:`_route_one`, the
    single-request reference kernel; ``hosts`` is the placement's
    :func:`_host_table` when the caller already has it.
    """
    model = model or instance.config.latency_model
    if hosts is None:
        hosts = _host_table(instance, placement.matrix)
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
    pad: np.ndarray,
    valid: np.ndarray,
    comp: np.ndarray,
    hs: np.ndarray,
    js: np.ndarray,
    offset: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Star-model batch kernel: one masked broadcast, no per-request loop.

    Positions decouple under the star model, so every ``(hs, js)`` chain
    position becomes one row of a flat ``(positions, W)`` cost matrix; a
    single masked argmin yields the node of every position, which is
    returned.  ``offset`` (per position) shifts the service id into a
    stacked host table (:class:`~repro.model.engine.BatchRouter` routes
    several placements in one call); the costs use the real service.

    A pure ``(service, home)`` argmin table would be even smaller, but it
    is exact only when all requests ship identical data volumes: the
    inflow term ``r·inv[home, k]`` scales with the per-request volume and
    can flip the argmin, so we keep the per-position rows.
    """
    inst = instance
    if hs.size == 0:
        return np.empty(0, dtype=np.int64)
    inv = inst.inv_rate
    q = inst.service_compute
    svc = inst.chain_matrix[hs, js]
    tsvc = svc if offset is None else svc + offset
    cand = pad[tsvc]  # (P, W)
    home = inst.homes[hs]
    w_in = inst.inflow_matrix[hs, js]
    last = js == inst.chain_lengths[hs] - 1
    out_w = np.where(last, inst.data_out[hs], 0.0)
    cost = w_in[:, None] * inv[home[:, None], cand] + q[svc][:, None] / comp[cand]
    cost = cost + out_w[:, None] * inv[cand, home[:, None]]
    cost[~valid[tsvc]] = np.inf
    pick = np.argmin(cost, axis=1)
    return cand[np.arange(hs.size), pick]


def _chain_assign_batch(
    instance: ProblemInstance,
    pad: np.ndarray,
    valid: np.ndarray,
    comp: np.ndarray,
    rows: Optional[np.ndarray] = None,
    offset: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Chain-model batch kernel: one padded Viterbi for the whole workload.

    Candidate sets come padded to a common width (:func:`_host_table`)
    so requests with *different* chains share the same layer step: the DP
    advances layer by layer over a ``(requests, prev, cand)`` transition
    tensor — ``max_chain`` vectorized steps forward and as many back,
    regardless of how many requests or distinct chain signatures exist.
    The rows are sorted by chain length, longest first, so the rows whose
    chain reaches layer ``j`` are a prefix and each step slices instead of
    gathering; the backward pass takes each row's terminal ``data_out``
    leg at its own last layer, then follows the back-pointers.

    Padding slots repeat host index 0; their column costs are forced to
    ``+inf`` after every layer so argmins — taken over candidates in
    ascending host order, padding last — break ties exactly like the
    per-request reference kernel :func:`_route_one`.

    ``rows`` restricts the DP to those requests (incremental re-routing;
    a request may appear more than once), and ``offset`` (per row)
    shifts each row's service ids into a stacked host table, as
    :func:`_star_assign` does.  Returns the ``(rows, max_chain)``
    assignment of the routed rows, ``-1`` past each chain's end.
    """
    inst = instance
    inv = inst.inv_rate
    q = inst.service_compute
    lengths = inst.chain_lengths if rows is None else inst.chain_lengths[rows]
    n_rows = lengths.size
    out = np.full((n_rows, inst.max_chain), -1, dtype=np.int64)
    if n_rows == 0:
        return out
    order = np.argsort(-lengths, kind="stable")
    r = order if rows is None else rows[order]
    chain = inst.chain_matrix[r]
    tchain = chain if offset is None else chain + offset[order][:, None]
    homes = inst.homes[r]
    edge_w = inst.edge_data_matrix[r]
    # reach[j]: rows whose chain reaches layer j (a prefix of the order)
    reach = np.searchsorted(-lengths[order], -np.arange(1, inst.max_chain + 1), side="right")
    n_layers = int(lengths.max())
    cols = np.arange(pad.shape[1])

    # forward pass: costs[j] / backs[j] over the first reach[j] rows
    cand = pad[tchain[:, 0]]
    cost = inst.data_in[r][:, None] * inv[homes[:, None], cand] + q[chain[:, 0]][
        :, None
    ] / comp[cand]
    cost[~valid[tchain[:, 0]]] = np.inf
    cands = [cand]
    costs = [cost]
    backs = [None]
    for j in range(1, n_layers):
        n = reach[j]
        svc = chain[:n, j]
        tsvc = tchain[:n, j]
        prev_cand = cands[j - 1][:n]
        cand = pad[tsvc]
        trans = (
            costs[j - 1][:n, :, None]
            + edge_w[:n, j - 1, None, None] * inv[prev_cand[:, :, None], cand[:, None, :]]
            + (q[svc][:, None] / comp[cand])[:, None, :]
        )
        argmin = trans.argmin(axis=1)  # (n, width)
        cost = trans[np.arange(n)[:, None], argmin, cols[None, :]]
        cost[~valid[tsvc]] = np.inf
        cands.append(cand)
        costs.append(cost)
        backs.append(argmin)

    # backward pass: rows ending at layer j pick their terminal argmin,
    # the rows that go on follow the back-pointers of layer j + 1
    data_out = inst.data_out[r]
    sel = np.empty(0, dtype=np.int64)
    for j in range(n_layers - 1, -1, -1):
        n, m = reach[j], (reach[j + 1] if j + 1 < n_layers else 0)
        nxt = np.empty(n, dtype=np.int64)
        nxt[:m] = backs[j + 1][np.arange(m), sel] if m else sel
        last = cands[j][m:n]
        final = costs[j][m:n] + data_out[m:n, None] * inv[last, homes[m:n, None]]
        nxt[m:n] = final.argmin(axis=1)
        sel = nxt
        out[order[:n], j] = cands[j][np.arange(n), sel]
    return out


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
    pad, valid = _host_table(instance, placement.matrix)
    comp = instance.compute_ext
    if model == "star":
        a = np.full((instance.n_requests, instance.max_chain), -1, dtype=np.int64)
        hs, js = np.nonzero(instance.chain_mask)
        a[hs, js] = _star_assign(instance, pad, valid, comp, hs, js)
    else:
        a = _chain_assign_batch(instance, pad, valid, comp)
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
        pad, valid = _host_table(instance, placement.matrix)
        comp = instance.compute_ext
        if model == "star":
            hs, js = np.nonzero(instance.chain_mask[rows])
            hs = rows[hs]
            a[hs, js] = _star_assign(instance, pad, valid, comp, hs, js)
        else:
            a[rows] = _chain_assign_batch(instance, pad, valid, comp, rows=rows)
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
    hosts = _host_table(instance, placement.matrix)
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

    ``hosts`` is a placement's :func:`_host_table`.  The batched engines
    must stay result-identical to this function; the property suite
    (``tests/test_property_routing_batch.py``) enforces the equivalence.
    :func:`load_aware_routing` calls it directly.
    """
    pad, valid = hosts

    def cands(svc: int) -> np.ndarray:
        return pad[svc][valid[svc]]

    q = instance.service_compute
    home = req.home
    if model == "star":
        nodes = np.empty(req.length, dtype=np.int64)
        inflow = [req.data_in, *req.edge_data]
        for j, svc in enumerate(req.chain):
            cand = cands(svc)
            cost = inflow[j] * inv[home, cand] + q[svc] / comp[cand]
            if j == req.length - 1:
                cost = cost + req.data_out * inv[cand, home]
            nodes[j] = cand[int(np.argmin(cost))]
        return nodes

    cand0 = cands(req.chain[0])
    cost = req.data_in * inv[home, cand0] + q[req.chain[0]] / comp[cand0]
    back: list[np.ndarray] = []
    prev_cand = cand0
    for j in range(1, req.length):
        svc = req.chain[j]
        cand = cands(svc)
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
        nodes[j - 1] = cands(req.chain[j - 1])[idx]
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
    pad, valid = _host_table(inst, placement.matrix)  # (S, W)
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
