"""Multi-scale combination (paper Alg. 3 and Alg. 4, §IV.C).

Starting from the (generous) pre-provisioning, SoCL *combines* instances
— merging two instances of the same microservice into one — to trade
latency for cost at two granularities:

* **large-scale parallel descent** (Alg. 3 lines 1-5): while the budget
  is exceeded, compute the latency loss ``ζ_{i,k}`` of every removable
  instance (Alg. 4), take the ``ω`` fraction with the smallest losses,
  drop dependency-conflicted picks (adjacent services in some user's
  chain keep only the smaller-ζ instance), and merge them all at once;
* **small-scale serial descent** (lines 6-15): merge one instance at a
  time by minimum ζ, re-running storage planning (Alg. 5) after each
  merge, rolling back merges that violate a deadline (Eq. 4), and
  stopping when the objective gradient ``δ = Q' − Q'' + Θ`` turns
  non-positive.

Users displaced by a merge re-attach via the paper's *connection update*
rule: the new reliance node must belong to the same partition group,
still host the instance, and maximize channel speed from the user's home
(``v_q = argmax B(l'_{f(u_h),q})``); when the group has no host left the
nearest host overall is used (cross-group fallback), and only if the
service has no edge instance at all does traffic go to the cloud — which
the single-instance skip in Alg. 4 prevents.

Incremental evaluation
----------------------
Removing (or adding) an instance of service ``i`` only changes service
``i``'s host set, so :class:`CombinationState` caches its derived
quantities *per service* — reliance rows, ζ rows — and invalidates only
the touched service between descent rounds instead of recomputing the
full tables.  A sweep rebuilds the ζ rows of all its stale services in
one padded pass: one masked best/second-best argmin over the stacked
``(services, demand_nodes, hosts)`` cost block, then per-host segment
sums (see :meth:`CombinationState._build_zeta_rows`).  The serial stage's
candidates are placements, not state mutations: each is the snapshot
minus one instance, repaired by Alg. 5, and all that survive the
Eq. (4) check are scored in one batched re-route against one
:class:`~repro.model.engine.BatchRouter` whose committed base is the
iteration's snapshot placement.  Each candidate re-routes only the
requests whose optimal route used the removed instance (or, when Alg. 5
gave a service a host, every request of that service); only the winner
becomes the state's placement, and its trial is committed as the next
snapshot's base instead of being routed again.  The relocation polish
prices every source host of a service in one pass.  All cached and
batched results are bit-identical to a fresh per-item recompute;
``tests/test_property_combination_cache.py`` and
``tests/test_property_routing_batch.py`` enforce this against the
per-item kernels frozen in ``tests/reference_combination.py``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.config import SoCLConfig
from repro.core.partition import PartitionResult
from repro.core.storage import StoragePlanOutcome, storage_plan
from repro.model.cost import deployment_cost
from repro.model.engine import BatchRouter, RouteTrial
from repro.model.instance import ProblemInstance
from repro.model.latency import total_latency
from repro.model.placement import Placement, Routing
from repro.model.routing import _host_table
from repro.obs import MetricsRegistry, current_tracer

logger = logging.getLogger(__name__)


#: Number of near-minimal-ζ merge candidates the serial stage evaluates
#: against the true objective per iteration.
_SERIAL_CANDIDATES = 3


def dependency_conflict_pairs(instance: ProblemInstance) -> set[frozenset[int]]:
    """Unordered service pairs adjacent in at least one request chain."""
    chains = instance.chain_matrix
    a, b = chains[:, :-1], chains[:, 1:]
    edge = b >= 0
    lo, hi = np.minimum(a, b)[edge], np.maximum(a, b)[edge]
    S = instance.n_services
    keys = np.unique(lo * S + hi)
    return {frozenset((int(k // S), int(k % S))) for k in keys}


class CombinationState:
    """Mutable working state of the combination stage.

    Tracks the placement, per-(service, home) reliance choices and the
    derived routing/objective.  Caches are *per service* and lazily
    recomputed: :meth:`remove`/:meth:`add` invalidate only the touched
    service, and :meth:`set_placement` diffs the placement matrices to
    invalidate only the services whose host sets actually changed.
    """

    def __init__(
        self,
        instance: ProblemInstance,
        partitions: PartitionResult,
        placement: Placement,
        config: SoCLConfig = SoCLConfig(),
    ):
        self.instance = instance
        self.partitions = partitions
        self.placement = placement.copy()
        self.config = config
        # group id of each (service, node) (−1 = outside all groups, and
        # every node of a service without a partition)
        self._gid = np.full((instance.n_services, instance.n_servers), -1, dtype=np.int64)
        for service in partitions.services:
            for s, group in enumerate(partitions.partition(service).groups):
                self._gid[service, list(group)] = s
        self._rel_rows: dict[int, np.ndarray] = {}
        self._zeta_rows: dict[int, dict[int, float]] = {}
        self._reliance_matrix: Optional[np.ndarray] = None
        self._router: Optional[BatchRouter] = None
        self._cost_cache: Optional[float] = None
        # placement-dependent host arrays (invalidated per service) and
        # the instance-static demand table (never invalidated)
        self._hosts_cache: dict[int, np.ndarray] = {}
        self._dtable: Optional[tuple[np.ndarray, ...]] = None
        # telemetry: ζ/reliance rows served from cache vs rebuilt.  Plain
        # int bumps (cheap enough to keep unconditional); the combination
        # driver publishes them to the ambient tracer when enabled.
        self.zeta_hits = 0
        self.zeta_rebuilds = 0
        self.reliance_hits = 0
        self.reliance_rebuilds = 0

    def _hosts(self, service: int) -> np.ndarray:
        hosts = self._hosts_cache.get(service)
        if hosts is None:
            hosts = self.placement.hosts(service)
            self._hosts_cache[service] = hosts
        return hosts

    def _demand_table(self) -> tuple[np.ndarray, ...]:
        """Static ``(S, D)`` padded demand (built once, never invalidated).

        ``(nodes, valid, data_volumes, user_counts, group)``: each
        service's demand nodes in ascending order, padded to the widest;
        ``group`` is the node's partition group, ``-3`` on padding and
        outside every group.
        """
        if self._dtable is None:
            inst = self.instance
            mask = inst.demand_counts > 0
            count = mask.sum(axis=1)
            width = max(1, int(count.max(initial=0)))
            valid = np.arange(width) < count[:, None]
            nodes = np.where(valid, np.argsort(~mask, axis=1, kind="stable")[:, :width], 0)
            rows = np.arange(inst.n_services)[:, None]
            gid = self._gid[rows, nodes]
            self._dtable = (
                nodes,
                valid,
                np.where(valid, inst.demand_data[rows, nodes], 0.0),
                np.where(valid, inst.demand_counts[rows, nodes], 0).astype(np.float64),
                np.where(valid & (gid >= 0), gid, -3),
            )
        return self._dtable

    # ------------------------------------------------------------------
    def invalidate(self, service: Optional[int] = None) -> None:
        """Drop cached derived state.

        With a ``service`` argument only that service's reliance/ζ rows
        are dropped (the per-service incremental path); without one the
        full cache is cleared, forcing a from-scratch recompute.
        """
        if service is None:
            self._rel_rows.clear()
            self._zeta_rows.clear()
            self._hosts_cache.clear()
            if self._router is not None:
                self._router.invalidate()
        else:
            self._rel_rows.pop(service, None)
            self._zeta_rows.pop(service, None)
            self._hosts_cache.pop(service, None)
        self._reliance_matrix = None
        self._cost_cache = None

    def _reliance_for_service(self, service: int) -> np.ndarray:
        """Per-home reliance node for one service (−1 where no demand).

        The connection-update pick of every demand node at once: the
        host with the best transfer coefficient (compute tie-break
        folded into the key), within the node's partition group when the
        group has a host.
        """
        inst = self.instance
        hosts = self._hosts(service)
        out = np.full(inst.n_servers, -1, dtype=np.int64)
        nodes, valid, _, _, group = self._demand_table()
        demand = nodes[service][valid[service]]
        if demand.size == 0:
            return out
        if hosts.size == 0:
            out[demand] = inst.cloud
            return out
        trans = inst.inv_rate[demand[:, None], hosts[None, :]]
        key = trans - 1e-12 * inst.compute_ext[hosts][None, :]
        # an ungrouped demand node (-3) matches no host
        gf = group[service][valid[service]]
        same = self._gid[service, hosts][None, :] == gf[:, None]
        pick = np.where(
            same.any(axis=1),
            np.where(same, key, np.inf).argmin(axis=1),
            key.argmin(axis=1),
        )
        out[demand] = hosts[pick]
        return out

    def _reliance_row(self, service: int) -> np.ndarray:
        row = self._rel_rows.get(service)
        if row is None:
            self.reliance_rebuilds += 1
            row = self._reliance_for_service(service)
            self._rel_rows[service] = row
        else:
            self.reliance_hits += 1
        return row

    @property
    def reliance(self) -> np.ndarray:
        """``(S, N)`` reliance matrix: node serving service ``i`` for
        users homed at ``n`` (−1 where irrelevant)."""
        if self._reliance_matrix is None:
            inst = self.instance
            rel = np.full((inst.n_services, inst.n_servers), -1, dtype=np.int64)
            for service in (int(i) for i in inst.requested_services):
                rel[service] = self._reliance_row(service)
            self._reliance_matrix = rel
        return self._reliance_matrix

    def routing(self) -> Routing:
        """Materialize the reliance choices as a :class:`Routing`."""
        inst = self.instance
        rel = self.reliance
        a = np.full((inst.n_requests, inst.max_chain), -1, dtype=np.int64)
        chain = inst.chain_matrix
        mask = inst.chain_mask
        homes = inst.homes
        chain_safe = np.where(mask, chain, 0)
        assigned = rel[chain_safe, homes[:, None]]
        a[mask] = assigned[mask]
        return Routing(inst, a)

    @property
    def router(self) -> BatchRouter:
        """The optimal-routing engine, built on first use."""
        if self._router is None:
            self._router = BatchRouter(self.instance)
        return self._router

    def _q(self, cost: float, latency_sum: float) -> float:
        lam = self.instance.config.weight
        return lam * cost + (1.0 - lam) * latency_sum

    def scored(self) -> tuple[float, RouteTrial]:
        """``Q`` of the placement under optimal routing, with its trial.

        Scored against the router's base without committing; pass the
        trial to ``self.router.commit`` to make this placement the base.
        """
        trial = self.router.score(self.placement)
        return self._q(self.cost(), trial.latency_sum), trial

    def objective(self, routing: str = "reliance") -> float:
        """Eq. (8) objective value Q.

        ``routing="reliance"`` scores under the paper's connection-update
        routing (cheap, used inside the parallel stage); ``"optimal"``
        routes every request optimally first — the value the serial
        stage's gradient δ compares (Alg. 3 lines 7/9 evaluate the true
        objective).  The optimal value is scored through the router's
        committed base (:meth:`scored`); the first call routes everything
        and becomes the base.
        """
        if routing == "optimal":
            return self.scored()[0]
        return self._q(
            self.cost(), float(total_latency(self.instance, self.routing()).sum())
        )

    def cost(self) -> float:
        """Deployment cost of the current placement (cached per mutation)."""
        if self._cost_cache is None:
            self._cost_cache = deployment_cost(self.instance, self.placement)
        return self._cost_cache

    # ------------------------------------------------------------------
    def _build_zeta_rows(self, services: list[int]) -> None:
        """ζ for **every** host of each of ``services``, in one padded pass.

        The services' ``(demand_nodes, hosts)`` cost matrices are padded
        into one ``(K, D, W)`` block (padded hosts keyed ``+inf``).  One
        masked best/second-best argmin yields, for each demand node, its
        reliance pick and the replacement host it would fall back to if
        that pick were removed (same-group second-best when the group
        still has a host, otherwise the best remaining host overall — the
        connection-update rule).  Summing the per-node cost deltas grouped
        by pick gives ζ for all hosts of all services at once.

        The per-host sums are bit-identical to the removed-one-at-a-time
        recompute: a stable sort lays each ``(service, pick)`` segment out
        contiguously in demand order, and segments of equal length ``ℓ``
        are summed as the rows of one ``(segments, ℓ)`` gather, which
        runs NumPy's pairwise summation exactly as ``ndarray.sum`` on the
        ``ℓ``-slice does.  (``np.add.reduceat`` and ``np.bincount`` sum
        sequentially and differ in the last bits.)
        """
        if not services:
            return
        self.zeta_rebuilds += len(services)
        inst = self.instance
        svc = np.array(services)
        dpad, dval, w, n_users, gf = (x[svc] for x in self._demand_table())
        hpad, hval = _host_table(inst, self.placement.matrix[svc])
        K, D, W = len(services), dpad.shape[1], hpad.shape[1]
        comp = inst.compute_ext[hpad]
        unit = inst.service_compute[svc][:, None] / comp
        trans = inst.inv_rate[dpad[:, :, None], hpad[:, None, :]]
        cost = w[:, :, None] * trans + n_users[:, :, None] * unit[:, None, :]
        key = np.where(hval[:, None, :], trans - 1e-12 * comp[:, None, :], np.inf)
        # same-group hosts; ungrouped demand (-3) and padding (-2) never match
        same = np.where(hval, self._gid[svc[:, None], hpad], -2)[:, None, :] == gf[:, :, None]
        has_same = same.any(axis=2)
        pick = np.where(
            has_same,
            np.where(same, key, np.inf).argmin(axis=2),
            key.argmin(axis=2),
        )
        ki, di = np.arange(K)[:, None], np.arange(D)
        key[ki, di, pick] = np.inf
        # the group rule survives removal only if a second same-group
        # host exists; otherwise fall back to the remaining hosts
        repl = np.where(
            has_same & (same.sum(axis=2) >= 2),
            np.where(same, key, np.inf).argmin(axis=2),
            key.argmin(axis=2),
        )
        # (service, pick) segments in demand order; padded demand last
        seg = np.where(dval, ki * W + pick, K * W).ravel()
        order = np.argsort(seg, kind="stable")[: int(dval.sum())]
        seg = seg[order]
        n = seg.size
        vals = np.concatenate(
            (cost[ki, di, repl].ravel()[order], cost[ki, di, pick].ravel()[order])
        )
        brk = np.ones(n, dtype=bool)
        np.not_equal(seg[1:], seg[:-1], out=brk[1:])
        head = np.flatnonzero(brk)
        lengths = np.append(head[1:], n) - head
        zeta = np.zeros(K * W)
        for length in np.flatnonzero(np.bincount(lengths)).tolist():
            lo = head[lengths == length]
            idx = lo[:, None] + np.arange(length)
            # rows [after, before] of one gather, summed along ℓ
            sums = vals[np.stack((idx, idx + n))].sum(axis=2)
            zeta[seg[lo]] = sums[0] - sums[1]
        # hosts nothing picks lose nothing: they keep ζ = 0.0
        counts = hval.sum(axis=1).tolist()
        zeta = zeta.reshape(K, W).tolist()
        hosts = hpad.tolist()
        for k, service in enumerate(services):
            c = counts[k]
            self._zeta_rows[service] = dict(zip(hosts[k][:c], zeta[k][:c]))

    def _zeta_row(self, service: int) -> dict[int, float]:
        """The cached ζ row of ``service`` (a batch of one when stale)."""
        row = self._zeta_rows.get(service)
        if row is None:
            self._build_zeta_rows([service])
            return self._zeta_rows[service]
        self.zeta_hits += 1
        return row

    def latency_loss(self, service: int, node: int) -> Optional[float]:
        """Latency loss ``ζ_{i,k}`` of removing ``(service, node)``.

        Returns ``None`` when removal is not allowed: the node hosts no
        instance, or it is the service's last instance (Alg. 4's skip).
        Served from the per-service ζ-row cache.
        """
        if not self.placement.has(service, node):
            return None
        if self._hosts(service).size <= 1:
            return None
        return self._zeta_row(service)[node]

    def remove(self, service: int, node: int) -> None:
        self.placement.remove(service, node)
        self.invalidate(service)

    def add(self, service: int, node: int) -> None:
        self.placement.add(service, node)
        self.invalidate(service)

    def set_placement(self, placement: Placement) -> None:
        """Swap in a new placement, invalidating only changed services."""
        changed = np.nonzero(
            (self.placement.matrix != placement.matrix).any(axis=1)
        )[0]
        self.placement = placement.copy()
        for service in changed:
            self._rel_rows.pop(int(service), None)
            self._zeta_rows.pop(int(service), None)
            self._hosts_cache.pop(int(service), None)
        if changed.size:
            self._reliance_matrix = None
            self._cost_cache = None


def latency_losses(
    state: CombinationState,
    tabu: Optional[set[tuple[int, int]]] = None,
) -> dict[tuple[int, int], float]:
    """Alg. 4: ζ for every removable instance (single-instance services
    and tabu entries skipped).

    Thanks to the per-service ζ-row cache only services whose host set
    changed since the last sweep are recomputed, all in one pass.
    """
    tabu = tabu or set()
    inst = state.instance
    removable = [
        int(i)
        for i in inst.requested_services
        if state._hosts(int(i)).size > 1
    ]
    # rebuild stale rows first so every row below is read as a cache hit
    # (the zeta_cache_hits/rebuilds counters are reported per slot)
    state._build_zeta_rows([s for s in removable if s not in state._zeta_rows])
    out: dict[tuple[int, int], float] = {}
    for service in removable:
        for node, z in state._zeta_row(service).items():
            if (service, node) in tabu:
                continue
            out[(service, node)] = z
    return out


def _filter_conflicts(
    chosen: list[tuple[int, int]],
    zetas: dict[tuple[int, int], float],
    conflicts: set[frozenset[int]],
    counts: dict[int, int],
) -> list[tuple[int, int]]:
    """Drop dependency-conflicted picks (keep smaller ζ) and cap removals
    so no service loses all instances in one round."""
    accepted: list[tuple[int, int]] = []
    accepted_services: set[int] = set()
    removals: dict[int, int] = {}
    for key in sorted(chosen, key=lambda ik: zetas[ik]):
        service, _node = key
        if any(
            frozenset((service, other)) in conflicts
            for other in accepted_services
            if other != service
        ):
            continue
        if removals.get(service, 0) + 1 >= counts[service]:
            continue  # must keep at least one instance
        accepted.append(key)
        accepted_services.add(service)
        removals[service] = removals.get(service, 0) + 1
    return accepted


@dataclass
class CombinationStats:
    """Diagnostics of one combination run.

    Compatibility shim: the combination driver now accumulates these
    counts in a :class:`repro.obs.MetricsRegistry` (namespaced
    ``combination.*`` in traces); this dataclass is built from the
    registry at the end of the run so ``SoCLResult.stats`` keeps its
    historical shape and values.
    """

    parallel_rounds: int = 0
    parallel_merges: int = 0
    serial_merges: int = 0
    rollbacks: int = 0
    migrations: int = 0
    forced_merges: int = 0
    relocations: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "parallel_rounds": self.parallel_rounds,
            "parallel_merges": self.parallel_merges,
            "serial_merges": self.serial_merges,
            "rollbacks": self.rollbacks,
            "migrations": self.migrations,
            "forced_merges": self.forced_merges,
            "relocations": self.relocations,
        }

    @classmethod
    def from_registry(cls, reg: MetricsRegistry) -> "CombinationStats":
        """Build the legacy stats view from a combination-run registry."""
        return cls(
            **{name: int(reg.get(name)) for name in cls.__dataclass_fields__}
        )


def _relocation_deltas(
    cost_fk: np.ndarray, hosts: np.ndarray, feasible: np.ndarray
) -> np.ndarray:
    """``delta[t, q] = Σ_f min(cost without host t, cost at q) − base``.

    ``cost_fk`` is a service's ``(demand, servers)`` cost matrix and
    ``base`` the demand's cost at its nearest host.  Every host ``t`` and
    feasible destination ``q`` is priced (``+inf`` elsewhere) in one
    ``(T, N, D)`` pass: with each node's best and second-best host cost,
    the cost without ``t`` is one ``where``.  The transposed ``cost_fk``
    keeps every f-sum on the same strided layout as a per-host ``(N, D)``
    evaluation, so each sum is bit-identical to the per-pair loop.
    """
    rows = np.arange(cost_fk.shape[0])
    sub = cost_fk[:, hosts]
    t1 = sub.argmin(axis=1)
    v1 = sub[rows, t1]
    sub[rows, t1] = np.inf
    v2 = sub.min(axis=1)  # +inf when the service has one host
    base_wo = np.where(t1[None, :] == np.arange(hosts.size)[:, None], v2, v1)
    trial = np.minimum(base_wo[:, None, :], cost_fk.T[None, :, :]).sum(axis=2)
    return np.where(feasible[None, :], trial - v1.sum(), np.inf)


def relocation_pass(
    state: CombinationState,
    config: SoCLConfig = SoCLConfig(),
) -> int:
    """Cost-neutral relocation polish (storage-aware adaptive placement).

    After the merge descent fixes *how many* instances each service
    keeps, this pass improves *where* they live: for each instance
    ``(i, k)`` it evaluates moving it to any storage-feasible node ``q``
    (same deployment cost — κ is per instance, not per node) and applies
    the move with the best estimated latency reduction.  The estimate
    prices every demand node at its nearest host (the same star-shaped
    approximation behind ζ); the final optimal routing can only improve
    on it.  Returns the number of moves applied.

    Every (k → q) move of a service is scored at once
    (:func:`_relocation_deltas`): one ``(hosts, servers, demand)``
    broadcast ``minimum`` prices every source host and destination
    together — no per-host or per-pair Python loop.
    """
    inst = state.instance
    inv = inst.inv_rate[: inst.n_servers, : inst.n_servers]
    comp = inst.network.compute
    phi = inst.service_storage
    capacity = inst.server_storage
    moves = 0

    for _ in range(config.max_relocation_rounds):
        moved_this_round = False
        used = phi @ state.placement.matrix.astype(np.float64)
        for service in (int(i) for i in inst.requested_services):
            hosts = state.placement.hosts(service)
            if hosts.size == 0:
                continue
            demand_nodes = np.nonzero(inst.demand_counts[service] > 0)[0]
            if demand_nodes.size == 0:
                continue
            w = inst.demand_data[service][demand_nodes]
            nf = inst.demand_counts[service][demand_nodes].astype(np.float64)
            q_i = inst.service_compute[service]
            # C[f, k]: latency of serving demand node f from host k
            cost_fk = (
                w[:, None] * inv[np.ix_(demand_nodes, np.arange(inst.n_servers))]
                + nf[:, None] * (q_i / comp)[None, :]
            )
            # feasible destinations: not already hosting, storage fits
            feasible = used + phi[service] <= capacity + 1e-9
            feasible[hosts] = False
            delta = _relocation_deltas(cost_fk, hosts, feasible)

            flat = np.argmin(delta)
            if delta.ravel()[flat] < -1e-9:
                t, q = divmod(int(flat), inst.n_servers)
                k = int(hosts[t])
                state.remove(service, k)
                state.add(service, q)
                used[k] -= phi[service]
                used[q] += phi[service]
                moves += 1
                moved_this_round = True
        if not moved_this_round:
            break
    return moves


def multi_scale_combination(
    instance: ProblemInstance,
    partitions: PartitionResult,
    preprovisioned: Placement,
    config: SoCLConfig = SoCLConfig(),
) -> tuple[Placement, CombinationStats]:
    """Run Alg. 3 end-to-end; returns the final placement and stats.

    Diagnostics accumulate in a local :class:`~repro.obs.MetricsRegistry`
    (the source of truth; :class:`CombinationStats` is derived from it at
    the end) and, when the ambient tracer is enabled, are published under
    the ``combination.*`` namespace alongside the ζ/reliance cache and
    :class:`~repro.model.engine.BatchRouter` layer stats.
    """
    tracer = current_tracer()
    state = CombinationState(instance, partitions, preprovisioned, config)
    reg = MetricsRegistry()
    conflicts = dependency_conflict_pairs(instance)
    budget = instance.config.budget
    # Eq. 4 cannot bind when every deadline is infinite (the default), so
    # the roll-back checks then skip routing and scoring altogether.
    deadline_bound = bool(np.isfinite(instance.deadlines).any())

    def misses_deadline(placement: Optional[Placement] = None) -> bool:
        """Eq. (4) under reliance routing for ``placement``, which becomes
        the state's placement (default: the current one)."""
        if not deadline_bound:
            return False
        if placement is not None:
            state.set_placement(placement)
        lat = total_latency(instance, state.routing())
        return bool(np.any(lat > instance.deadlines + 1e-9))

    # ---------------- large-scale parallel descent ----------------
    with tracer.span("parallel_descent"):
        while (
            state.cost() > budget
            and reg.get("parallel_rounds") < config.max_parallel_rounds
        ):
            zetas = latency_losses(state)
            if not zetas:
                break
            n_pick = max(1, int(np.floor(config.omega * len(zetas))))
            ranked = sorted(zetas, key=zetas.get)[:n_pick]
            counts = {
                svc: state.placement.instance_count(svc)
                for svc in {ik[0] for ik in ranked}
            }
            accepted = _filter_conflicts(ranked, zetas, conflicts, counts)
            if not accepted:
                # conflict filtering removed everything — fall back to the
                # single best merge so the loop always progresses.
                best = min(zetas, key=zetas.get)
                if state.placement.instance_count(best[0]) > 1:
                    accepted = [best]
                else:
                    break
            reg.inc("merges_proposed", len(ranked))
            reg.inc("merges_accepted", len(accepted))
            for service, node in accepted:
                state.remove(service, node)
                reg.inc("parallel_merges")
            reg.inc("parallel_rounds")

    # Initial storage repair before the serial stage.
    plan = storage_plan(instance, state.placement, config)
    state.set_placement(plan.placement)
    reg.inc("migrations", len(plan.migrations))
    storage_ok = plan.success

    # ---------------- small-scale serial descent ----------------
    # Each iteration merges the min-ζ instance (the paper examines a few
    # near-minimal candidates per round; ``_SERIAL_CANDIDATES`` bounds
    # that look-ahead) and accepts via the true-objective gradient
    # δ = Q' − Q'' + Θ, with deadline roll-back and storage planning.
    # Candidates are placements, not state mutations: each is the
    # snapshot minus one instance, repaired by Alg. 5.  Under finite
    # deadlines each survivor of the Eq. (4) check is the state's
    # placement while it is checked.  The survivors are scored in one
    # batched re-route against the router's base, and only the winner
    # (the first minimum of Q) becomes the state's placement.
    tabu: set[tuple[int, int]] = set()
    theta = config.theta
    # Q of the placement an iteration starts from.  It is scored once, by
    # one full route that becomes the router's base: an accepted merge's
    # q_after was scored on exactly the placement the next iteration
    # starts from, and its trial is committed as the new base, while an
    # iteration that keeps nothing leaves the placement, its q_before and
    # the base as they were.  Every candidate is scored against the base,
    # that is, against the iteration's snapshot.
    q_before: Optional[float] = None
    with tracer.span("serial_descent"):
        for _ in range(config.max_serial_iterations):
            forced = (not storage_ok) or (state.cost() > budget)
            zetas = latency_losses(state, tabu)
            if not zetas:
                break
            if q_before is None:
                q_before = state.objective("optimal")
            snapshot = state.placement.copy()

            candidates = sorted(zetas, key=zetas.get)[:_SERIAL_CANDIDATES]
            reg.inc("merges_proposed", len(candidates))
            plans: list[StoragePlanOutcome] = []
            for service, node in candidates:
                merged = snapshot.copy()
                merged.remove(service, node)
                plan = storage_plan(instance, merged, config)
                # deadline check (Eq. 4) with roll-back
                if misses_deadline(plan.placement):
                    tabu.add((service, node))
                    reg.inc("rollbacks")
                    continue
                plans.append(plan)
            if not plans:
                state.set_placement(snapshot)
                continue
            trials = state.router.score_many([p.placement for p in plans])
            scores = [
                state._q(deployment_cost(instance, p.placement), t.latency_sum)
                for p, t in zip(plans, trials)
            ]
            win = 0
            for c in range(1, len(plans)):
                if scores[c] < scores[win]:
                    win = c
            q_after, plan, trial = scores[win], plans[win], trials[win]
            state.set_placement(plan.placement)

            if forced:
                # Budget/storage still violated: merging is mandatory, the
                # gradient test does not apply (Alg. 5 line 17 path).
                storage_ok = plan.success
                reg.inc("migrations", len(plan.migrations))
                reg.inc("serial_merges")
                reg.inc("merges_accepted")
                reg.inc("forced_merges")
                state.router.commit(trial)
                q_before = q_after
                continue

            delta = q_before - q_after + theta
            if delta <= 0:
                state.set_placement(snapshot)
                break
            storage_ok = plan.success
            reg.inc("migrations", len(plan.migrations))
            reg.inc("serial_merges")
            reg.inc("merges_accepted")
            state.router.commit(trial)
            q_before = q_after

    # ---------------- relocation polish ----------------
    if config.relocation:
        with tracer.span("relocation"):
            snapshot = state.placement.copy()
            reg.inc("relocations", relocation_pass(state, config))
            if reg.get("relocations"):
                # deadline guard: relocations must not break Eq. (4)
                if misses_deadline():
                    state.set_placement(snapshot)
                    reg.inc("relocations", -reg.get("relocations"))

    stats = CombinationStats.from_registry(reg)
    if tracer.enabled:
        reg.inc("zeta_cache_hits", state.zeta_hits)
        reg.inc("zeta_cache_rebuilds", state.zeta_rebuilds)
        reg.inc("reliance_cache_hits", state.reliance_hits)
        reg.inc("reliance_cache_rebuilds", state.reliance_rebuilds)
        if state._router is not None:
            reg.inc("router_services_rerouted", state._router.rerouted_services)
            reg.inc("router_services_cached", state._router.cached_services)
            reg.inc("router_rows_rerouted", state._router.rerouted_rows)
        tracer.metrics.merge(reg, prefix="combination.")
    logger.debug(
        "multi_scale_combination: %d parallel + %d serial merges, "
        "%d rollbacks, %d relocations",
        stats.parallel_merges,
        stats.serial_merges,
        stats.rollbacks,
        stats.relocations,
    )
    return state.placement, stats
