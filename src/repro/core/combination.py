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
full tables.  The ζ row of a service is produced for **all** of its
hosts at once by one masked best/second-best argmin over the
``(demand_nodes, hosts)`` cost matrix (see :meth:`CombinationState._zeta_row`),
replacing the per-(host, demand-node) Python loops.  The serial stage
scores its true objective through one :class:`~repro.model.engine.BatchRouter`
whose committed base is the iteration's snapshot placement: each
candidate merge re-routes only the requests whose optimal route used the
removed instance (or, when Alg. 5 gave a service a host, every request
of that service), and the winner is committed as the next snapshot's
base instead of being routed again.  All cached results are
bit-identical to a fresh recompute;
``tests/test_property_combination_cache.py`` enforces this.
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
        # group id of each node per service (−1 = outside all groups)
        self._group_id: dict[int, np.ndarray] = {}
        for service in partitions.services:
            part = partitions.partition(service)
            gid = np.full(instance.n_servers, -1, dtype=np.int64)
            for s, group in enumerate(part.groups):
                for v in group:
                    gid[v] = s
            self._group_id[service] = gid
        self._rel_rows: dict[int, np.ndarray] = {}
        self._zeta_rows: dict[int, dict[int, float]] = {}
        self._reliance_matrix: Optional[np.ndarray] = None
        self._router: Optional[BatchRouter] = None
        self._cost_cache: Optional[float] = None
        # placement-dependent host arrays (invalidated per service) and
        # instance-static demand slices (never invalidated)
        self._hosts_cache: dict[int, np.ndarray] = {}
        self._demand_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
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

    def _demand(self, service: int) -> tuple:
        """Static per-service demand slices (never invalidated).

        ``(demand_nodes, data_volumes, user_counts, row_indices,
        group_of_node)``; the last entry is ``None`` for services without
        a partition.
        """
        entry = self._demand_cache.get(service)
        if entry is None:
            inst = self.instance
            demand = np.nonzero(inst.demand_counts[service] > 0)[0]
            gid = self._group_id.get(service)
            entry = (
                demand,
                inst.demand_data[service][demand],
                inst.demand_counts[service][demand].astype(np.float64),
                np.arange(demand.size),
                None if gid is None else gid[demand],
            )
            self._demand_cache[service] = entry
        return entry

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

    # -- host selection kernel -----------------------------------------
    def _select_hosts(
        self,
        service: int,
        demand: np.ndarray,
        hosts: np.ndarray,
        trans: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray]:
        """Connection-update picks for every demand node at once.

        Returns ``(pick, key, same, has_same)``: for each demand node the
        index *into* ``hosts`` of the reliance choice, the selection-key
        matrix (transfer coefficient with the compute tie-break folded
        in), the same-partition-group candidate mask (``None`` when the
        service has no partition) and the per-row flag of whether the
        group preference applied.  ``trans`` lets callers that already
        gathered the ``inv_rate[demand × hosts]`` block pass it in.
        """
        inst = self.instance
        if trans is None:
            trans = inst.inv_rate[demand[:, None], hosts[None, :]]
        key = trans - 1e-12 * inst.compute_ext[hosts][None, :]
        gid = self._group_id.get(service)
        if gid is None:
            return key.argmin(axis=1), key, None, np.zeros(demand.size, dtype=bool)
        gf = self._demand(service)[4]
        same = (gf[:, None] >= 0) & (gid[hosts][None, :] == gf[:, None])
        has_same = same.any(axis=1)
        pick_all = key.argmin(axis=1)
        pick_same = np.where(same, key, np.inf).argmin(axis=1)
        pick = np.where(has_same, pick_same, pick_all)
        return pick, key, same, has_same

    def _reliance_for_service(self, service: int) -> np.ndarray:
        """Per-home reliance node for one service (−1 where no demand)."""
        inst = self.instance
        hosts = self._hosts(service)
        out = np.full(inst.n_servers, -1, dtype=np.int64)
        demand = self._demand(service)[0]
        if demand.size == 0:
            return out
        if hosts.size == 0:
            out[demand] = inst.cloud
            return out
        pick, _, _, _ = self._select_hosts(service, demand, hosts)
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

    def _q(self, latency_sum: float) -> float:
        lam = self.instance.config.weight
        return lam * self.cost() + (1.0 - lam) * latency_sum

    def scored(self) -> tuple[float, RouteTrial]:
        """``Q`` of the placement under optimal routing, with its trial.

        Scored against the router's base without committing; pass the
        trial to ``self.router.commit`` to make this placement the base.
        """
        trial = self.router.score(self.placement)
        return self._q(trial.latency_sum), trial

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
        return self._q(float(total_latency(self.instance, self.routing()).sum()))

    def cost(self) -> float:
        """Deployment cost of the current placement (cached per mutation)."""
        if self._cost_cache is None:
            self._cost_cache = deployment_cost(self.instance, self.placement)
        return self._cost_cache

    # ------------------------------------------------------------------
    def _zeta_row(self, service: int) -> dict[int, float]:
        """ζ for **every** host of ``service`` in one vectorized pass.

        One ``(demand_nodes, hosts)`` cost matrix plus best/second-best
        masked argmins yields, for each demand node, its reliance pick
        and the replacement host it would fall back to if that pick were
        removed (same-group second-best when the group still has a host,
        otherwise the best remaining host overall — the connection-update
        rule).  Summing the per-node cost deltas grouped by pick gives
        ζ for all hosts simultaneously; values are bit-identical to the
        removed-one-at-a-time recompute.
        """
        row = self._zeta_rows.get(service)
        if row is not None:
            self.zeta_hits += 1
            return row
        self.zeta_rebuilds += 1
        inst = self.instance
        hosts = self._hosts(service)
        demand, w, n_users, rows, _ = self._demand(service)
        if demand.size == 0:
            row = {int(k): 0.0 for k in hosts}
            self._zeta_rows[service] = row
            return row

        q = inst.service_compute[service]
        unit = q / inst.compute_ext[hosts]
        trans = inst.inv_rate[demand[:, None], hosts[None, :]]
        cost = w[:, None] * trans + n_users[:, None] * unit[None, :]

        pick, key, same, has_same = self._select_hosts(service, demand, hosts, trans)
        key_excl = key.copy()
        key_excl[rows, pick] = np.inf
        repl_all = key_excl.argmin(axis=1)
        if same is not None:
            s_cnt = same.sum(axis=1)
            masked_excl = np.where(same, key_excl, np.inf)
            repl_same = masked_excl.argmin(axis=1)
            # the group rule survives removal only if a second same-group
            # host exists; otherwise fall back to the remaining hosts
            repl = np.where(has_same & (s_cnt >= 2), repl_same, repl_all)
        else:
            repl = repl_all

        before = cost[rows, pick]
        after = cost[rows, repl]
        # segment sums grouped by pick: a stable sort keeps each host's
        # affected nodes in demand order, so the contiguous slice sums are
        # bit-identical to the boolean-masked ``after[pick == t].sum()``
        order = np.argsort(pick, kind="stable")
        after_s = after[order]
        before_s = before[order]
        bounds = np.searchsorted(pick[order], np.arange(hosts.size + 1)).tolist()
        row = {}
        for t, node in enumerate(hosts.tolist()):
            lo, hi = bounds[t], bounds[t + 1]
            # hosts nothing picks lose nothing: empty sums are exactly 0.0
            row[node] = (
                float(after_s[lo:hi].sum() - before_s[lo:hi].sum())
                if hi > lo
                else 0.0
            )
        self._zeta_rows[service] = row
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
    changed since the last sweep are recomputed.
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
    for s in removable:
        if s not in state._zeta_rows:
            state._zeta_row(s)
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

    Every (k → q) move of a service is scored at once: with the per-node
    best and second-best host costs precomputed, the latency without
    host ``k`` is a single ``where``, and one broadcasted ``minimum``
    against the full ``(demand, servers)`` cost matrix prices all
    destinations simultaneously — no per-pair Python loop.
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
            n_demand = demand_nodes.size
            rows = np.arange(n_demand)
            sub = cost_fk[:, hosts]
            t1 = sub.argmin(axis=1)
            v1 = sub[rows, t1]
            sub_excl = sub.copy()
            sub_excl[rows, t1] = np.inf
            v2 = sub_excl.min(axis=1)  # +inf when the service has one host
            base = v1.sum()

            # feasible destinations: not already hosting, storage fits
            feasible = used + phi[service] <= capacity + 1e-9
            feasible[hosts] = False

            # delta[t, q] = Σ_f min(cost without host t, cost at q) − base
            delta = np.full((hosts.size, inst.n_servers), np.inf)
            for t in range(hosts.size):
                base_wo = np.where(t1 == t, v2, v1)
                # transpose-first keeps the f-reduction on the contiguous
                # axis → bit-identical sums to the per-pair evaluation
                trial = np.minimum(base_wo[None, :], cost_fk.T).sum(axis=1)
                delta[t, feasible] = trial[feasible] - base

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

    def misses_deadline() -> bool:
        """Eq. (4) under reliance routing for the current placement."""
        if not deadline_bound:
            return False
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
            best: Optional[tuple[float, StoragePlanOutcome, RouteTrial]] = None
            for service, node in candidates:
                state.set_placement(snapshot)
                state.remove(service, node)
                plan = storage_plan(instance, state.placement, config)
                state.set_placement(plan.placement)
                # deadline check (Eq. 4) with roll-back
                if misses_deadline():
                    tabu.add((service, node))
                    reg.inc("rollbacks")
                    continue
                q_after, trial = state.scored()
                if best is None or q_after < best[0]:
                    best = (q_after, plan, trial)
            if best is None:
                state.set_placement(snapshot)
                continue

            # keep the winner's planned placement as it was scored
            q_after, plan, trial = best
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
