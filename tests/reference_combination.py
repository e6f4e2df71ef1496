"""Per-item Alg. 3–4 kernels, frozen as oracles for tests.

The combination stage now works in batched passes: one padded host table
per routing call (:func:`repro.model.routing._host_table`), one ζ pass
over every stale service of a sweep
(:meth:`repro.core.combination.CombinationState._build_zeta_rows`), one
``(T, N, D)`` pass per service in the relocation polish
(:func:`repro.core.combination._relocation_deltas`), and one batched
re-route for all serial candidates of an iteration
(:meth:`repro.model.engine.BatchRouter.score_many`).  Before they were
batched, each of these ran one item at a time.  This module keeps
verbatim copies of those per-item versions so the property suites can
check the batched ones against them byte for byte.  It is a test oracle,
not a second model: nothing under ``src/`` calls it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.combination import (
    CombinationState,
    CombinationStats,
    _SERIAL_CANDIDATES,
    _filter_conflicts,
    dependency_conflict_pairs,
    latency_losses,
    relocation_pass,
)
from repro.core.config import SoCLConfig
from repro.core.partition import PartitionResult
from repro.core.storage import storage_plan
from repro.model.instance import ProblemInstance
from repro.model.latency import total_latency
from repro.model.placement import Placement
from repro.obs import MetricsRegistry


def host_lists(instance: ProblemInstance, placement: Placement) -> list[np.ndarray]:
    """Per-service candidate node arrays (cloud appended when empty)."""
    cloud = instance.cloud
    hosts: list[np.ndarray] = []
    for i in range(instance.n_services):
        h = placement.hosts(i)
        if h.size == 0:
            h = np.array([cloud], dtype=np.int64)
        hosts.append(h)
    return hosts


def padded_hosts(hosts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-service host arrays into ``(S, Hmax)`` index/valid pair."""
    n_services = len(hosts)
    hmax = max(h.size for h in hosts)
    pad = np.zeros((n_services, hmax), dtype=np.int64)
    valid = np.zeros((n_services, hmax), dtype=bool)
    for i, h in enumerate(hosts):
        pad[i, : h.size] = h
        valid[i, : h.size] = True
    return pad, valid


def zeta_row(state: CombinationState, service: int) -> dict[int, float]:
    """ζ for every host of ``service``: the per-service pass.

    Recomputed from the state's instance, placement and partitions; reads
    no cache.
    """
    inst = state.instance
    hosts = state.placement.hosts(service)
    demand = np.nonzero(inst.demand_counts[service] > 0)[0]
    w = inst.demand_data[service][demand]
    n_users = inst.demand_counts[service][demand].astype(np.float64)
    rows = np.arange(demand.size)
    if demand.size == 0:
        return {int(k): 0.0 for k in hosts}
    gid: Optional[np.ndarray] = None
    if service in state.partitions.services:
        gid = np.full(inst.n_servers, -1, dtype=np.int64)
        for s, group in enumerate(state.partitions.partition(service).groups):
            for v in group:
                gid[v] = s

    q = inst.service_compute[service]
    unit = q / inst.compute_ext[hosts]
    trans = inst.inv_rate[demand[:, None], hosts[None, :]]
    cost = w[:, None] * trans + n_users[:, None] * unit[None, :]

    key = trans - 1e-12 * inst.compute_ext[hosts][None, :]
    if gid is None:
        pick = key.argmin(axis=1)
        same = None
    else:
        gf = gid[demand]
        same = (gf[:, None] >= 0) & (gid[hosts][None, :] == gf[:, None])
        has_same = same.any(axis=1)
        pick_all = key.argmin(axis=1)
        pick_same = np.where(same, key, np.inf).argmin(axis=1)
        pick = np.where(has_same, pick_same, pick_all)
    key_excl = key.copy()
    key_excl[rows, pick] = np.inf
    repl_all = key_excl.argmin(axis=1)
    if same is not None:
        s_cnt = same.sum(axis=1)
        masked_excl = np.where(same, key_excl, np.inf)
        repl_same = masked_excl.argmin(axis=1)
        repl = np.where(has_same & (s_cnt >= 2), repl_same, repl_all)
    else:
        repl = repl_all

    before = cost[rows, pick]
    after = cost[rows, repl]
    order = np.argsort(pick, kind="stable")
    after_s = after[order]
    before_s = before[order]
    bounds = np.searchsorted(pick[order], np.arange(hosts.size + 1)).tolist()
    row = {}
    for t, node in enumerate(hosts.tolist()):
        lo, hi = bounds[t], bounds[t + 1]
        row[node] = (
            float(after_s[lo:hi].sum() - before_s[lo:hi].sum())
            if hi > lo
            else 0.0
        )
    return row


def relocation_deltas(
    cost_fk: np.ndarray, hosts: np.ndarray, feasible: np.ndarray
) -> np.ndarray:
    """The relocation pass's move deltas, one host at a time."""
    n_demand = cost_fk.shape[0]
    rows = np.arange(n_demand)
    sub = cost_fk[:, hosts]
    t1 = sub.argmin(axis=1)
    v1 = sub[rows, t1]
    sub_excl = sub.copy()
    sub_excl[rows, t1] = np.inf
    v2 = sub_excl.min(axis=1)
    base = v1.sum()
    delta = np.full((hosts.size, cost_fk.shape[1]), np.inf)
    for t in range(hosts.size):
        base_wo = np.where(t1 == t, v2, v1)
        trial = np.minimum(base_wo[None, :], cost_fk.T).sum(axis=1)
        delta[t, feasible] = trial[feasible] - base
    return delta


def multi_scale_combination(
    instance: ProblemInstance,
    partitions: PartitionResult,
    preprovisioned: Placement,
    config: SoCLConfig = SoCLConfig(),
) -> tuple[Placement, CombinationStats, MetricsRegistry]:
    """Alg. 3 with the per-candidate serial stage: each candidate is
    applied to the state, planned, checked and scored on its own.

    Returns the registry too, so tests can compare ``merges_proposed``.
    """
    state = CombinationState(instance, partitions, preprovisioned, config)
    reg = MetricsRegistry()
    conflicts = dependency_conflict_pairs(instance)
    budget = instance.config.budget
    deadline_bound = bool(np.isfinite(instance.deadlines).any())
    lam = instance.config.weight

    def misses_deadline() -> bool:
        if not deadline_bound:
            return False
        lat = total_latency(instance, state.routing())
        return bool(np.any(lat > instance.deadlines + 1e-9))

    def scored():
        trial = state.router.score(state.placement)
        return lam * state.cost() + (1.0 - lam) * trial.latency_sum, trial

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

    plan = storage_plan(instance, state.placement, config)
    state.set_placement(plan.placement)
    reg.inc("migrations", len(plan.migrations))
    storage_ok = plan.success

    tabu: set[tuple[int, int]] = set()
    theta = config.theta
    q_before: Optional[float] = None
    for _ in range(config.max_serial_iterations):
        forced = (not storage_ok) or (state.cost() > budget)
        zetas = latency_losses(state, tabu)
        if not zetas:
            break
        if q_before is None:
            q_before = scored()[0]
        snapshot = state.placement.copy()

        candidates = sorted(zetas, key=zetas.get)[:_SERIAL_CANDIDATES]
        reg.inc("merges_proposed", len(candidates))
        best = None
        for service, node in candidates:
            state.set_placement(snapshot)
            state.remove(service, node)
            plan = storage_plan(instance, state.placement, config)
            state.set_placement(plan.placement)
            if misses_deadline():
                tabu.add((service, node))
                reg.inc("rollbacks")
                continue
            q_after, trial = scored()
            if best is None or q_after < best[0]:
                best = (q_after, plan, trial)
        if best is None:
            state.set_placement(snapshot)
            continue

        q_after, plan, trial = best
        state.set_placement(plan.placement)

        if forced:
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

    if config.relocation:
        snapshot = state.placement.copy()
        reg.inc("relocations", relocation_pass(state, config))
        if reg.get("relocations"):
            if misses_deadline():
                state.set_placement(snapshot)
                reg.inc("relocations", -reg.get("relocations"))

    return state.placement, CombinationStats.from_registry(reg), reg
