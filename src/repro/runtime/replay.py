"""Vectorized fault-free slot replay: the online trace hot path.

The event loop in :mod:`repro.runtime.cluster` processes one heap event
per chain hop — upload, per-stage processing, transfer, return — which
dominates the Fig. 9-10 online experiments once the offline solver is
vectorized.  This module replays an entire slot's requests with NumPy
batch operations instead, producing results **bit-identical** to the
event loop whenever it commits.

Approach
--------
A request's per-stage *ready times* ``r[h, j]`` (the instant stage ``j``'s
input data has arrived) fully determine the slot, because every other
quantity is a deterministic function of them:

* per-(service, node) warm/cold penalties follow from the invocation
  order of each instance, i.e. from sorting ``r`` within the group;
* per-node FIFO core queues admit jobs in ``(node, r)`` order, each
  claiming the earliest-free core (ties to the lowest core index,
  matching ``np.argmin``);
* downstream ready times follow the event loop's exact float
  arithmetic: ``r[j+1] = r[j] + ((finish[j] - r[j]) + transfer[j])``.

The replay runs a **fixed-point iteration**: initialize ``r`` with the
congestion-free lower bound (no queueing, no penalties), then
alternately (a) simulate every node queue and instance pool against the
current ``r`` and (b) propagate the resulting finish times downstream.
When two consecutive rounds produce exactly equal ``r`` arrays the
solution is self-consistent and — absent exact arrival-time ties at a
node, where the event loop's sequence numbers would pick an order this
module cannot see — it is the unique causal schedule, so the replay
commits.  Otherwise (ties detected, no convergence within the round
budget, non-finite transfer coefficients, or a pool inconsistent with
the placement) the replay **declines** by returning ``None`` and the
caller falls back to the event loop; no state is mutated in that case.

Per round, everything is NumPy except the core-claiming scan, a tight
Python loop over the ``(node, r)``-sorted invocations that also
accumulates per-node busy time in the event loop's exact summation
order.  :func:`replay_slot` is the *reference* engine: simple,
single-process, obviously aligned with the event loop.  The slot-static
arrays it builds are factored into :class:`ReplayPlan` so the
region-sharded engine (:mod:`repro.runtime.shard`) can run the same
fixpoint over partitioned state without re-deriving any arithmetic.
The equivalence contract is documented in ``docs/RUNTIME.md`` and
enforced by a Hypothesis property test.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.model.instance import ProblemInstance
from repro.model.placement import Placement, Routing
from repro.runtime.serverless import InstancePool

#: Fixed-point round budget before declining to the event loop.  Light
#: and moderately loaded slots converge in 2-4 rounds; deeply cascaded
#: congestion that needs more than this is rare enough to replay
#: event-driven.
DEFAULT_MAX_ROUNDS = 60


@dataclass(frozen=True)
class ReplayResult:
    """Columnar outcome of one vectorized slot replay.

    Arrays are aligned with the submitted arrival order (the ``request``
    column).  Values are bit-identical to the fields of the
    :class:`repro.runtime.cluster.RequestOutcome` objects the event loop
    would have produced for the same arrivals.
    """

    request: np.ndarray
    start: np.ndarray
    finish: np.ndarray
    queueing: np.ndarray
    cold_start: np.ndarray
    rounds: int

    @property
    def latency(self) -> np.ndarray:
        """Per-request end-to-end latency (``finish − start``)."""
        return self.finish - self.start

    @property
    def n_requests(self) -> int:
        """Number of replayed requests."""
        return int(self.request.size)


def empty_result(req: np.ndarray) -> ReplayResult:
    """The (trivially committed) result of a slot with no arrivals."""
    empty = np.empty(0, dtype=np.float64)
    return ReplayResult(req.copy(), empty, empty.copy(), empty.copy(),
                        empty.copy(), 0)


@dataclass
class ReplayPlan:
    """Slot-static arrays shared by the replay engines.

    Everything here is a pure function of the instance, placement,
    routing, pool warmth and the slot's arrivals — no per-round state.
    ``e_rows``/``e_cols`` enumerate the *edge* invocations (non-cloud
    chain positions) in row-major (request, position) order; that flat
    rank is the deterministic tie-break order every engine must share.
    """

    req: np.ndarray
    at: np.ndarray
    n_req: int
    width: int
    cores: int
    n_nodes: int
    lengths: np.ndarray
    first_ready: np.ndarray
    transfer: np.ndarray
    ret: np.ndarray
    service: np.ndarray
    cloud_mask: np.ndarray
    e_rows: np.ndarray
    e_cols: np.ndarray
    v_edge: np.ndarray
    s_edge: np.ndarray
    svc_edge: np.ndarray
    pooled: np.ndarray
    groups: np.ndarray
    carried: np.ndarray
    keep_alive: float
    cold_penalty: float
    M: np.int64

    @property
    def n_edge(self) -> int:
        """Number of edge-node invocations (rows of the CSR stage table)."""
        return int(self.e_rows.size)

    @property
    def row_idx(self) -> np.ndarray:
        """``arange(n_req)`` — one row index per replayed request."""
        return np.arange(self.n_req)

    @property
    def last_col(self) -> np.ndarray:
        """Per-request index of its final chain stage (``lengths - 1``)."""
        return self.lengths - 1

    # -- fixpoint arithmetic (the exact event-loop float ops) ----------
    def congestion_free_ready(self) -> np.ndarray:
        """Lower-bound initialization: no queueing, no penalties."""
        n_req, width = self.n_req, self.width
        ready = np.zeros((n_req, width), dtype=np.float64)
        ready[:, 0] = self.first_ready
        for j in range(width - 1):
            free_finish = ready[:, j] + self.service[:, j]
            ready[:, j + 1] = np.where(
                self.lengths > j + 1,
                ready[:, j] + ((free_finish - ready[:, j]) + self.transfer[:, j]),
                0.0,
            )
        return ready

    def propagate(self, finish_matrix: np.ndarray) -> np.ndarray:
        """Downstream ready times from a finish matrix (exact float ops)."""
        ready = np.zeros((self.n_req, self.width), dtype=np.float64)
        ready[:, 0] = self.first_ready
        for j in range(self.width - 1):
            nxt = ready[:, j] + (
                (finish_matrix[:, j] - ready[:, j]) + self.transfer[:, j]
            )
            ready[:, j + 1] = np.where(self.lengths > j + 1, nxt, 0.0)
        return ready

    def finish_matrix(
        self, ready: np.ndarray, start_edge: np.ndarray
    ) -> np.ndarray:
        """Per-stage finish times from edge starts plus cloud stages."""
        finish = np.zeros((self.n_req, self.width))
        if self.n_edge:
            finish[self.e_rows, self.e_cols] = start_edge + self.s_edge
        return np.where(self.cloud_mask, ready + self.service, finish)

    def commit_columns(
        self,
        ready: np.ndarray,
        finish_mat: np.ndarray,
        r_edge: np.ndarray,
        start_edge: np.ndarray,
        penalty: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Final (finish, queueing, cold) columns from converged state."""
        n_req, width = self.n_req, self.width
        wait_full = np.zeros((n_req, width))
        pen_full = np.zeros((n_req, width))
        if self.n_edge:
            wait_full[self.e_rows, self.e_cols] = start_edge - (r_edge + penalty)
            pen_full[self.e_rows, self.e_cols] = penalty
        queueing = np.zeros(n_req)
        cold = np.zeros(n_req)
        for j in range(width):  # chain order: the event loop's order
            queueing = queueing + wait_full[:, j]
            cold = cold + pen_full[:, j]
        row_idx, last_col = self.row_idx, self.last_col
        last_ready = ready[row_idx, last_col]
        last_finish = finish_mat[row_idx, last_col]
        finish = last_ready + ((last_finish - last_ready) + self.ret)
        return finish, queueing, cold


def build_replay_plan(
    instance: ProblemInstance,
    placement: Placement,
    routing: Routing,
    pool: InstancePool,
    nodes: Sequence,
    req: np.ndarray,
    at: np.ndarray,
) -> Optional[ReplayPlan]:
    """Derive the slot-static :class:`ReplayPlan`; ``None`` declines.

    Declines mirror :func:`replay_slot`'s eligibility checks: a routing
    matrix too narrow for the slot, heterogeneous core counts, invalid
    assignments, non-finite transfer terms or a pool missing a placed
    group all return ``None`` so the caller can fall back to the event
    loop.
    """
    req = np.asarray(req, dtype=np.int64)
    at = np.asarray(at, dtype=np.float64)
    n_req = int(req.size)
    inst = instance
    lengths = inst.chain_lengths[req]
    width = int(lengths.max())
    assign = routing.assignment
    if assign.ndim != 2 or assign.shape[1] < width:
        return None
    n_nodes = len(nodes)
    if n_nodes:
        cores = nodes[0].cores
        if any(nd.cores != cores for nd in nodes):
            return None
    else:
        cores = 1

    svc = inst.chain_matrix[req, :width]
    asg = assign[req, :width]
    valid = svc >= 0
    cloud = inst.cloud
    if np.any(valid & ((asg < 0) | (asg > cloud))):
        return None

    homes = inst.homes[req]
    inv = inst.inv_rate
    node_c = np.where(valid, asg, cloud)
    svc_c = np.where(valid, svc, 0)

    # Per-invocation service times; identical arithmetic for edge and
    # cloud stages because compute_ext[cloud] == config.cloud_compute.
    service = inst.service_compute[svc_c] / inst.compute_ext[node_c]
    edge_mask = valid & (node_c != cloud)
    cloud_mask = valid & (node_c == cloud)

    # Static transfer terms: upload leg, inter-stage edges, return leg.
    first_ready = at + (inst.data_in[req] * inv[homes, node_c[:, 0]])
    transfer = np.zeros((n_req, width), dtype=np.float64)
    if width > 1:
        edge_flow = inst.edge_data_matrix[req][:, : width - 1]
        transfer[:, : width - 1] = edge_flow * inv[node_c[:, :-1], node_c[:, 1:]]
    row_idx = np.arange(n_req)
    last_col = lengths - 1
    last_node = node_c[row_idx, last_col]
    ret = inst.data_out[req] * inv[last_node, homes]

    if not (
        np.isfinite(first_ready).all()
        and np.isfinite(ret).all()
        and np.isfinite(service[valid]).all()
        and (width <= 1
             or np.isfinite(transfer[:, : width - 1][valid[:, 1:]]).all())
    ):
        return None

    # Flattened edge invocations (row-major: request, then chain position).
    e_rows, e_cols = np.nonzero(edge_mask)
    n_edge = int(e_rows.size)
    v_edge = node_c[e_rows, e_cols]
    s_edge = service[e_rows, e_cols]
    svc_edge = svc_c[e_rows, e_cols]

    # Pool-eligible invocations, grouped by (service, node).
    if n_edge:
        pooled = placement.matrix[svc_edge, v_edge]
    else:
        pooled = np.zeros(0, dtype=bool)
    M = np.int64(max(n_nodes, 1))
    pool_idx = np.nonzero(pooled)[0]
    group_key = svc_edge[pool_idx] * M + v_edge[pool_idx]
    groups = np.unique(group_key)
    carried = np.full(groups.size, np.nan)
    for g, key in enumerate(groups.tolist()):
        svc_g, node_g = divmod(key, int(M))
        if not pool.is_provisioned(svc_g, node_g):
            # The event loop would raise mid-replay; let it.
            return None
        last = pool.last_used(svc_g, node_g)
        if last is not None:
            carried[g] = last

    return ReplayPlan(
        req=req,
        at=at,
        n_req=n_req,
        width=width,
        cores=cores,
        n_nodes=n_nodes,
        lengths=lengths,
        first_ready=first_ready,
        transfer=transfer,
        ret=ret,
        service=service,
        cloud_mask=cloud_mask,
        e_rows=e_rows,
        e_cols=e_cols,
        v_edge=v_edge,
        s_edge=s_edge,
        svc_edge=svc_edge,
        pooled=pooled,
        groups=groups,
        carried=carried,
        keep_alive=pool.config.keep_alive,
        cold_penalty=pool.config.cold_start,
        M=M,
    )


def pool_penalties(
    plan: ReplayPlan,
    p_idx: np.ndarray,
    r_edge: np.ndarray,
    penalty: np.ndarray,
    group_last_arr: np.ndarray,
) -> tuple[int, int]:
    """Warm/cold resolution for one node's pooled invocations.

    ``p_idx`` must be in ascending flat-rank order; ``penalty`` and
    ``group_last_arr`` are written in place.  Returns ``(n_cold,
    n_warm)``.  This is the exact warmth rule of
    :meth:`repro.runtime.serverless.InstancePool.invoke` applied in
    ready order within each (service, node) group.
    """
    if not p_idx.size:
        return 0, 0
    r_p = r_edge[p_idx]
    key_p = plan.svc_edge[p_idx] * plan.M + plan.v_edge[p_idx]
    order_p = np.lexsort((r_p, key_p))
    keys_s = key_p[order_p]
    times_s = r_p[order_p]
    is_first = np.empty(keys_s.size, dtype=bool)
    is_first[0] = True
    np.not_equal(keys_s[1:], keys_s[:-1], out=is_first[1:])
    prev = np.empty_like(times_s)
    prev[0] = 0.0
    prev[1:] = times_s[:-1]
    g_of = np.searchsorted(plan.groups, keys_s)
    warm = np.where(
        is_first,
        (times_s - plan.carried[g_of]) <= plan.keep_alive,
        (times_s - prev) <= plan.keep_alive,
    )
    penalty[p_idx[order_p]] = np.where(warm, 0.0, plan.cold_penalty)
    last_pos = np.nonzero(np.append(is_first[1:], True))[0]
    group_last_arr[g_of[last_pos]] = times_s[last_pos]
    n_cold = int(np.count_nonzero(~warm))
    return n_cold, int(warm.size - n_cold)


def replay_slot(
    instance: ProblemInstance,
    placement: Placement,
    routing: Routing,
    pool: InstancePool,
    nodes: Sequence,
    req: np.ndarray,
    at: np.ndarray,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> Optional[ReplayResult]:
    """Replay arrivals ``(req[i], at[i])`` in batch; ``None`` declines.

    ``nodes`` is the cluster's list of fresh ``_Node`` objects (all cores
    idle at time 0, zero accumulated busy time); on success their
    ``core_free`` / ``busy_time`` are advanced exactly as the event loop
    would have and the ``pool``'s warmth, cold-start and warm-hit
    counters are updated in bulk.  On ``None`` nothing is mutated and the
    caller must run the event loop instead.  The caller is responsible
    for input validation and for ensuring no fault injector or
    resilience policy is active.
    """
    req = np.asarray(req, dtype=np.int64)
    at = np.asarray(at, dtype=np.float64)
    if req.size == 0:
        return empty_result(req)
    plan = build_replay_plan(instance, placement, routing, pool, nodes, req, at)
    if plan is None:
        return None

    n_req, width, cores = plan.n_req, plan.width, plan.cores
    n_nodes, n_edge = plan.n_nodes, plan.n_edge
    e_rows, e_cols = plan.e_rows, plan.e_cols
    v_edge, s_edge = plan.v_edge, plan.s_edge
    groups, M = plan.groups, plan.M

    # Per-node static index structures.  A node's queue/pool outcome
    # depends only on its own invocations' ready times, so each round
    # re-simulates just the nodes whose inputs changed since the
    # previous round (incremental Jacobi sweep); untouched nodes keep
    # their cached schedule, penalties, busy sums and core states.
    pool_idx = np.nonzero(plan.pooled)[0]
    node_inv = [np.nonzero(v_edge == v)[0] for v in range(n_nodes)]
    if pool_idx.size:
        pool_node = v_edge[pool_idx]
        node_pool = [pool_idx[pool_node == v] for v in range(n_nodes)]
    else:
        node_pool = [np.empty(0, dtype=np.int64) for _ in range(n_nodes)]

    # Mutable per-round state, updated only for changed nodes.
    penalty = np.zeros(n_edge)
    start_edge = np.zeros(n_edge)
    busy_arr = [0.0] * n_nodes
    core_state = [[0.0] * cores for _ in range(n_nodes)]
    group_last_arr = np.full(groups.size, np.nan)
    n_cold_arr = [0] * n_nodes
    n_warm_arr = [0] * n_nodes
    tied_arr = [False] * n_nodes

    def _sim_node(v: int, r_edge: np.ndarray) -> None:
        """Re-simulate node ``v``'s pool warmth and FIFO core queue."""
        idx = node_inv[v]
        if idx.size == 0:
            return
        n_cold, n_warm = pool_penalties(
            plan, node_pool[v], r_edge, penalty, group_last_arr
        )
        n_cold_arr[v] = n_cold
        n_warm_arr[v] = n_warm

        r_v = r_edge[idx]
        order = np.argsort(r_v, kind="stable")
        r_sorted = r_v[order]
        # Exact same-node ready ties are event-order dependent.  A tie
        # only invalidates the result if it survives into the converged
        # round — intermediate iterates may tie while the fixpoint
        # itself is tie-free — so it is recorded per node and checked
        # at convergence.  The stable argsort keeps tied invocations in
        # their deterministic flattened (request, position) order.
        tied_arr[v] = bool(
            r_sorted.size > 1 and np.any(r_sorted[1:] == r_sorted[:-1])
        )
        sel = idx[order]
        admit = (r_edge[sel] + penalty[sel]).tolist()
        work = s_edge[sel].tolist()
        starts: list[float] = []
        push = starts.append
        busy = 0.0
        if cores == 1:
            f0 = 0.0
            for a, w in zip(admit, work):
                st = a if a > f0 else f0
                f0 = st + w
                busy += w
                push(st)
            core_state[v] = [f0]
        elif cores == 2:
            # unrolled two-core argmin: first core wins exact ties,
            # matching np.argmin's first-minimum rule
            f0 = f1 = 0.0
            for a, w in zip(admit, work):
                if f0 <= f1:
                    st = a if a > f0 else f0
                    f0 = st + w
                else:
                    st = a if a > f1 else f1
                    f1 = st + w
                busy += w
                push(st)
            core_state[v] = [f0, f1]
        else:
            # (free, core_idx) heap pops the earliest-free lowest-index
            # core, matching np.argmin over the core_free vector
            heap = [(0.0, c) for c in range(cores)]
            free = [0.0] * cores
            for a, w in zip(admit, work):
                x, c = heapq.heappop(heap)
                st = a if a > x else x
                fin = st + w
                heapq.heappush(heap, (fin, c))
                free[c] = fin
                busy += w
                push(st)
            core_state[v] = free
        busy_arr[v] = busy
        start_edge[sel] = starts

    # Initialization: the congestion-free lower bound.
    ready = plan.congestion_free_ready()
    prev_r_edge: Optional[np.ndarray] = None
    r_edge = np.zeros(n_edge)
    rounds = 0
    converged = False
    while rounds < max_rounds:
        rounds += 1
        r_edge = ready[e_rows, e_cols]
        if prev_r_edge is None:
            changed_nodes = list(range(n_nodes))
        else:
            diff = r_edge != prev_r_edge
            changed_nodes = (
                np.unique(v_edge[diff]).tolist() if diff.any() else []
            )
        for v in changed_nodes:
            _sim_node(v, r_edge)
        prev_r_edge = r_edge

        finish_matrix = plan.finish_matrix(ready, start_edge)
        new_ready = plan.propagate(finish_matrix)
        if np.array_equal(new_ready, ready):
            converged = True
            break
        ready = new_ready
    if not converged or any(tied_arr):
        # no convergence, or the fixpoint carries an exact same-node
        # ready tie: the event loop's seq-order tie-break is
        # authoritative
        return None

    # ---- commit: build the columnar result ---------------------------
    finish, queueing, cold = plan.commit_columns(
        ready, finish_matrix, r_edge, start_edge, penalty
    )

    # ---- commit: advance pool and node state -------------------------
    if pool_idx.size:
        updates = {}
        for g, key in enumerate(groups.tolist()):
            svc_g, node_g = divmod(key, int(M))
            updates[(svc_g, node_g)] = group_last_arr[g]
        pool.commit_batch(updates, sum(n_cold_arr), sum(n_warm_arr))
    for v, nd in enumerate(nodes):
        nd.busy_time += busy_arr[v]
        free = core_state[v]
        for c in range(cores):
            nd.core_free[c] = free[c]

    return ReplayResult(
        request=req.copy(),
        start=at.copy(),
        finish=finish,
        queueing=queueing,
        cold_start=cold,
        rounds=rounds,
    )
