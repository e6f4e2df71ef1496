"""Online SoCL: warm-start provisioning across time slots.

The paper runs SoCL one-shot per slot ("processes decisions in a
time-slotted manner … adapts to the observed system state").  Re-solving
from scratch every slot discards two things a real deployment cares
about: *placement stability* (every redeployed instance is a cold start,
see :mod:`repro.runtime.serverless`) and *compute* (the partition +
pre-provision stages repeat work when demand barely moved).

:class:`OnlineSoCL` is a stateful drop-in solver implementing the
natural extension:

1. compute the **demand shift** between the previous slot's demand
   matrix and the current one (normalized L1 distance);
2. below ``shift_threshold``, **incrementally repair** the previous
   placement: drop instances of services no longer requested, cover
   newly requested services at their demand-weighted best node, rerun
   storage planning, budget-forced serial merges and the relocation
   polish — all through the tested Alg. 3/5 machinery, skipping the
   partition/pre-provision rebuild;
3. above the threshold, fall back to a full SoCL solve;
4. optionally **retain** still-useful previous instances that fit the
   leftover budget/storage (hysteresis against churn);
5. **route around recent failures**: the simulator reports instances
   that crashed during replay (:meth:`OnlineSoCL.note_failures`), and
   the next slot's routing steers affected requests away from those
   instances via :func:`repro.model.routing.partial_reroute` — only the
   touched requests re-run the DP.

Every result records the decision mode and the number of redeployments
so the cold-start economics are measurable (see
``benchmarks/bench_online.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.base import BaselineResult, finalize
from repro.core.combination import (
    CombinationState,
    latency_losses,
    multi_scale_combination,
    relocation_pass,
)
from repro.core.config import SoCLConfig
from repro.core.partition import initial_partition
from repro.core.socl import solve_socl
from repro.core.storage import storage_plan
from repro.model.cost import deployment_cost
from repro.model.instance import ProblemInstance
from repro.model.placement import Placement
from repro.model.routing import greedy_routing, optimal_routing, partial_reroute
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_probability


def demand_shift(previous: np.ndarray, current: np.ndarray) -> float:
    """Normalized L1 distance between two (S, N) demand matrices.

    0 means identical demand; 1 means total mass moved (relative to the
    previous mass).  Unbounded above when demand grows.
    """
    previous = np.asarray(previous, dtype=np.float64)
    current = np.asarray(current, dtype=np.float64)
    if previous.shape != current.shape:
        raise ValueError(
            f"demand shapes differ: {previous.shape} vs {current.shape}"
        )
    base = max(previous.sum(), 1.0)
    return float(np.abs(current - previous).sum() / base)


class OnlineSoCL:
    """Stateful SoCL with incremental warm-start repair between slots."""

    name = "SoCL-Online"

    def __init__(
        self,
        config: SoCLConfig = SoCLConfig(),
        shift_threshold: float = 0.5,
        retention: bool = False,
    ):
        if shift_threshold < 0:
            raise ValueError(
                f"shift_threshold must be non-negative, got {shift_threshold}"
            )
        self.config = config
        self.shift_threshold = float(shift_threshold)
        self.retention = bool(retention)
        self._prev_preference: dict[tuple[int, int], int] = {}
        self._prev_placement: Optional[Placement] = None
        self._prev_demand: Optional[np.ndarray] = None
        self._prev_shape: Optional[tuple[int, int]] = None
        self._recent_failures: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all cross-slot state."""
        self._prev_placement = None
        self._prev_demand = None
        self._prev_shape = None
        self._prev_preference = {}
        self._recent_failures = set()

    def note_failures(self, pairs) -> None:
        """Record ``(service, node)`` instances that crashed last slot.

        Called by :class:`repro.runtime.simulator.OnlineSimulator` when
        fault injection is active.  The next :meth:`solve` steers
        requests routed through these instances to surviving hosts (see
        the module docstring, point 5), then forgets them — one slot of
        avoidance matches the resilience model's restart delay being
        short relative to a slot.
        """
        self._recent_failures.update(
            (int(svc), int(node)) for svc, node in pairs
        )

    def _should_full_resolve(self, instance: ProblemInstance) -> tuple[bool, float]:
        if self._prev_placement is None or self._prev_demand is None:
            return True, np.inf
        shape = (instance.n_services, instance.n_servers)
        if shape != self._prev_shape:
            return True, np.inf
        shift = demand_shift(self._prev_demand, instance.demand_counts)
        return shift > self.shift_threshold, shift

    def _repair(self, instance: ProblemInstance) -> tuple[Placement, dict]:
        """Incremental repair of the previous placement for new demand."""
        assert self._prev_placement is not None
        x = self._prev_placement.copy()
        requested = set(int(i) for i in instance.requested_services)
        inv = instance.network.paths.inv_rate

        # 1. drop instances of services nobody requests this slot
        dropped = 0
        for svc, node in x.pairs():
            if svc not in requested:
                x.remove(svc, node)
                dropped += 1

        # 2. cover newly requested services at the demand-weighted best node
        covered = 0
        for svc in sorted(requested):
            if x.instance_count(svc) > 0:
                continue
            demand_nodes = np.nonzero(instance.demand_counts[svc] > 0)[0]
            weights = instance.demand_counts[svc, demand_nodes].astype(np.float64)
            score = (weights[:, None] * inv[demand_nodes, : instance.n_servers]).sum(
                axis=0
            )
            x.add(svc, int(np.argmin(score)))
            covered += 1

        # 3. storage repair, then budget-forced merges + polish through
        #    the Alg. 3/5 machinery seeded with the repaired placement
        partitions = initial_partition(instance, self.config)
        plan = storage_plan(instance, x, self.config)
        state = CombinationState(instance, partitions, plan.placement, self.config)
        merges = 0
        while deployment_cost(instance, state.placement) > instance.config.budget:
            zetas = latency_losses(state)
            if not zetas:
                break
            svc, node = min(zetas, key=zetas.get)
            state.remove(svc, node)
            merges += 1
        plan = storage_plan(instance, state.placement, self.config)
        state.set_placement(plan.placement)
        relocations = (
            relocation_pass(state, self.config) if self.config.relocation else 0
        )
        return state.placement, {
            "dropped": dropped,
            "covered": covered,
            "merges": merges,
            "relocations": relocations,
        }

    def _retain(self, instance: ProblemInstance, placement: Placement) -> int:
        """Hysteresis: keep previous-slot instances that still fit.

        Re-adds instances from the previous placement (most-demanded
        services first) while budget and storage slack allow — the paper
        intro's "flexible storage planning … allowing more warm instances
        in the nearby area" lever.  It deliberately trades deployment
        cost for placement stability; whether the extra warm capacity
        pays off in cold starts depends on how stationary the workload
        is, which no benchmark measures.
        """
        if self._prev_placement is None or self._prev_shape != (
            instance.n_services,
            instance.n_servers,
        ):
            return 0
        requested = set(int(i) for i in instance.requested_services)
        kappa = instance.service_cost
        phi = instance.service_storage
        budget = instance.config.budget
        spend = deployment_cost(instance, placement)
        used = phi @ placement.matrix.astype(np.float64)
        capacity = instance.server_storage
        candidates = sorted(
            (
                (svc, node)
                for svc, node in self._prev_placement.pairs()
                if svc in requested and not placement.has(svc, node)
            ),
            key=lambda sn: -float(instance.demand_counts[sn[0]].sum()),
        )
        retained = 0
        for svc, node in candidates:
            if spend + kappa[svc] > budget:
                continue
            if used[node] + phi[svc] > capacity[node] + 1e-9:
                continue
            placement.add(svc, node)
            spend += float(kappa[svc])
            used[node] += float(phi[svc])
            retained += 1
        return retained

    def _sticky_routing(self, instance: ProblemInstance, placement: Placement):
        """Prefer last slot's node per (service, home); fall back to the
        highest-channel-speed host for new or invalidated pairs.

        The preference dict is scattered into a dense ``(S, N)`` table
        once per solve and every chain position is resolved with array
        lookups, so the per-request cost is NumPy indexing rather than
        dict probes and ``placement.hosts`` calls per position.
        """
        inv = instance.inv_rate
        comp = instance.compute_ext
        S, N = instance.n_services, instance.n_servers
        cloud = instance.cloud
        cm = instance.chain_matrix
        valid = cm >= 0
        svc = np.where(valid, cm, 0)
        homes = instance.homes[:, None]

        pref = np.full((S, N), -1, dtype=np.int64)
        for (s, home), node in self._prev_preference.items():
            if 0 <= s < S and 0 <= home < N and 0 <= node < N:
                pref[s, home] = node
        mat = placement.matrix
        prev = pref[svc, homes]
        prev_ok = (prev >= 0) & mat[svc, np.where(prev >= 0, prev, 0)]

        # Fallback host per (service, home): ``hosts`` from a placement
        # are ascending and ``np.argmin`` keeps the first minimum, so a
        # masked argmin over all nodes selects the same host as
        # ``hosts[argmin(inv[home, hosts] - 1e-12 * comp[hosts])]``.
        key = inv[:N, :N] - 1e-12 * comp[None, :N]
        masked = np.where(mat[:, None, :], key[None, :, :], np.inf)
        best = masked.argmin(axis=2)
        any_host = mat.any(axis=1)

        fallback = np.where(
            any_host[svc], best[svc, homes], np.int64(cloud)
        )
        a = np.where(prev_ok, prev, fallback)
        a[~valid] = -1
        from repro.model.placement import Routing

        return Routing(instance, a)

    # ------------------------------------------------------------------
    def solve(self, instance: ProblemInstance) -> BaselineResult:
        sw = Stopwatch()
        sw.start()
        full, shift = self._should_full_resolve(instance)

        repair_info: dict = {}
        if full:
            result = solve_socl(instance, self.config)
            placement = result.placement
            mode = "full"
        else:
            placement, repair_info = self._repair(instance)
            mode = "incremental"

        retained = 0
        if self.retention:
            retained = self._retain(instance, placement)

        if self.retention and self._prev_preference:
            # Sticky routing: keep last slot's (service, home) choices
            # while the instance survives, so retained instances stay
            # warm instead of traffic redistributing every slot.
            routing = self._sticky_routing(instance, placement)
        elif self.config.routing == "optimal":
            routing = optimal_routing(instance, placement)
        else:
            routing = greedy_routing(instance, placement)

        rerouted = 0
        if self._recent_failures:
            avoid = {
                (svc, node)
                for svc, node in self._recent_failures
                if svc < instance.n_services
                and node < instance.n_servers
                and placement.has(svc, node)
                and placement.hosts(svc).size > 1
            }
            if avoid:
                safe = placement.copy()
                for svc, node in sorted(avoid):
                    safe.remove(svc, node)
                cm = instance.chain_matrix
                valid = cm >= 0
                av = np.zeros(
                    (instance.n_services, instance.cloud + 1), dtype=bool
                )
                for svc, node in avoid:
                    av[svc, node] = True
                hit = valid & av[
                    np.where(valid, cm, 0),
                    np.where(valid, routing.assignment, 0),
                ]
                rows = np.nonzero(hit.any(axis=1))[0]
                if rows.size:
                    routing = partial_reroute(
                        instance,
                        safe,
                        rows.astype(np.int64),
                        routing.assignment,
                    )
                    rerouted = int(rows.size)
            self._recent_failures.clear()

        # remember this slot's (service, home) → node choices; fancy
        # assignment over row-major flattened positions keeps the
        # loop's last-write-wins semantics per (service, home) pair
        cm = instance.chain_matrix
        assigned = routing.assignment
        keep = (cm >= 0) & (assigned >= 0) & (assigned < instance.cloud)
        table = np.full(
            (instance.n_services, instance.n_servers), -1, dtype=np.int64
        )
        table[
            cm[keep],
            np.broadcast_to(instance.homes[:, None], cm.shape)[keep],
        ] = assigned[keep]
        s_idx, home_idx = np.nonzero(table >= 0)
        self._prev_preference = {
            (int(s), int(hm)): int(table[s, hm])
            for s, hm in zip(s_idx, home_idx)
        }

        # redeployment accounting: instances present now but not before
        if self._prev_placement is not None and self._prev_shape == (
            instance.n_services,
            instance.n_servers,
        ):
            prev_pairs = set(self._prev_placement.pairs())
            redeployed = len(set(placement.pairs()) - prev_pairs)
        else:
            redeployed = placement.total_instances

        self._prev_placement = placement.copy()
        self._prev_demand = instance.demand_counts.copy()
        self._prev_shape = (instance.n_services, instance.n_servers)

        runtime = sw.stop()
        return finalize(
            instance,
            placement,
            routing,
            runtime,
            extra={
                "mode": mode,
                "demand_shift": shift,
                "redeployed_instances": redeployed,
                "retained_instances": retained,
                "rerouted_requests": rerouted,
                **repair_info,
            },
        )
