"""Fault-free slot replay: the plan and result types of the fixpoint.

The event loop in :mod:`repro.runtime.cluster` processes one heap event
per chain hop — upload, per-stage processing, transfer, return — which
dominates the Fig. 9-10 online experiments once the offline solver is
vectorized.  The fixpoint replay (:func:`repro.runtime.shard.replay_slot`
and its region-sharded form) replays a whole slot's requests with NumPy
batch operations instead, producing results **bit-identical** to the
event loop whenever it commits.  This module holds what the replay
derives once per slot (:class:`ReplayPlan`) and what it commits
(:class:`ReplayResult`).

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
node, where the event loop's sequence numbers would pick an order the
replay cannot see — it is the unique causal schedule, so the replay
commits.  Otherwise (ties detected, no convergence within
:data:`DEFAULT_MAX_ROUNDS`, non-finite transfer coefficients, or a pool
inconsistent with the placement) the replay **declines** by returning
``None`` and the caller falls back to the event loop; no state is
mutated in that case.  The equivalence contract is documented in
``docs/RUNTIME.md`` and enforced by Hypothesis property tests against
the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.model.instance import ProblemInstance
from repro.model.placement import Placement, Routing
from repro.runtime.serverless import InstancePool

#: Cores of every edge node.  The event loop's ``_Node`` takes any core
#: count, but the cluster builds every node with this one, and the
#: fixpoint's FIFO kernels implement only the two-core claim rule.
NODE_CORES = 2

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
    """Slot-static arrays of one fixpoint replay.

    Everything here is a pure function of the instance, placement,
    routing, pool warmth and the slot's arrivals — no per-round state.
    ``homes`` is each request's home node, which decides the region
    that owns the request.  ``e_rows``/``e_cols`` enumerate the *edge*
    invocations (non-cloud chain positions) in row-major (request,
    position) order; that flat rank is the deterministic tie-break
    order of every same-node ready tie.
    """

    req: np.ndarray
    at: np.ndarray
    homes: np.ndarray
    n_req: int
    width: int
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

    Declines are the replay's eligibility checks: a routing matrix too
    narrow for the slot, a node without exactly :data:`NODE_CORES`
    cores, invalid assignments, non-finite transfer terms or a pool
    missing a placed group all return ``None`` so the caller can fall
    back to the event loop.
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
    if any(nd.cores != NODE_CORES for nd in nodes):
        return None

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
        homes=homes,
        n_req=n_req,
        width=width,
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
