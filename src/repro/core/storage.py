"""FuzzyAHP storage planning (paper Alg. 5, Def. 9).

Each small-scale combination round may leave some edge server over its
storage capacity (Eq. 6).  The planner then:

1. verifies global feasibility — if total remaining capacity cannot hold
   the current instance population, it signals the combination loop to
   keep merging (Alg. 5 line 17);
2. for every overloaded node, ranks the instances on it by their *local
   demand factor* ``ρ^{m_i}_{v_k}``, computed with FuzzyAHP over four
   criteria: deployment cost ``κ``, storage footprint ``φ``,
   requesting-user count ``|U^{m_i}_{v_k}|`` and the chain-order factor
   ``R^{m_i}_{v_k} = (3·u_f + 2·u_l + u_m) / |U^{m_i}_{v_k}|``
   (first/last chain positions weigh more since they pin the user's
   entry/exit latency);
3. migrates the lowest-ρ instance to the nearest node (highest channel
   speed) that lacks the service and has spare storage, repeating until
   the node fits.

The paper defines ``R`` once per slot instance, and so does the code:
it is :attr:`ProblemInstance.order_factor`, one vectorized pass in
O(Σ chain length) cached on the instance, and the FuzzyAHP criterion
weights are a constant computed once per process.  Both are read only
when a victim is ranked, so a call that finds no overloaded node (most
calls from the combination loop) costs a few storage-use products.

The outcome reports success, the migrations performed, and — on global
or local failure — the signal that more combination is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from repro.core.config import SoCLConfig
from repro.core.fuzzy_ahp import (
    DEFAULT_CRITERIA_MATRIX,
    fuzzy_ahp_weights,
    score_alternatives,
)
from repro.model.cost import storage_used
from repro.model.instance import ProblemInstance
from repro.model.placement import Placement


@dataclass(frozen=True)
class StoragePlanOutcome:
    """Result of one storage-planning pass."""

    placement: Placement
    success: bool
    migrations: tuple[tuple[int, int, int], ...]  # (service, from, to)
    overloaded: tuple[int, ...]  # nodes that could not be repaired


#: Storage slack of every Eq. 6 test: a node filled to its capacity up to
#: rounding (say 0.1 + 0.2 against 0.3) fits.
_SLACK = 1e-9


def order_factor(instance: ProblemInstance) -> np.ndarray:
    """``(S, N)`` matrix of order factors ``R^{m_i}_{v_k}``.

    Returns the instance's cached, read-only
    :attr:`~repro.model.instance.ProblemInstance.order_factor`.
    """
    return instance.order_factor


@cache
def _criteria_weights() -> np.ndarray:
    """FuzzyAHP weights of :data:`DEFAULT_CRITERIA_MATRIX` (read-only)."""
    weights = fuzzy_ahp_weights(DEFAULT_CRITERIA_MATRIX)
    weights.flags.writeable = False
    return weights


def _overloaded(instance: ProblemInstance, x: Placement) -> tuple[int, ...]:
    """Nodes whose storage use exceeds capacity beyond rounding."""
    used = storage_used(instance, x)
    return tuple(
        int(v) for v in np.nonzero(used > instance.server_storage + _SLACK)[0]
    )


def local_demand_factor(
    instance: ProblemInstance,
    placement: Placement,
    node: int,
    order: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
) -> dict[int, float]:
    """FuzzyAHP priority ``ρ^{m_i}_{v_k}`` for every instance on ``node``.

    Higher means more important to keep locally.  Criteria directions:
    cheap-to-redeploy (κ) and small (φ) instances are *less* critical;
    high local demand and high order factor are *more* critical.
    """
    services = placement.services_on(node)
    if services.size == 0:
        return {}
    if order is None:
        order = instance.order_factor
    if weights is None:
        weights = _criteria_weights()
    values = np.column_stack(
        [
            instance.service_cost[services],
            instance.service_storage[services],
            instance.demand_counts[services, node].astype(np.float64),
            order[services, node],
        ]
    )
    # κ: benefit (expensive instances are costly to re-create elsewhere);
    # φ: cost (large footprints should move first); |U|, R: benefit.
    scores = score_alternatives(values, benefit=[True, False, True, True], weights=weights)
    return {int(s): float(v) for s, v in zip(services, scores)}


def storage_plan(
    instance: ProblemInstance,
    placement: Placement,
    config: SoCLConfig = SoCLConfig(),
) -> StoragePlanOutcome:
    """Run Alg. 5 on ``placement`` (returns a repaired copy).

    When ``config.storage_planning`` is False, a naive fallback evicts
    the largest-footprint instance instead of the FuzzyAHP ranking — the
    ablation baseline called out in DESIGN.md §5.
    """
    x = placement.copy()
    phi = instance.service_storage
    capacity = instance.server_storage

    # Global feasibility (Alg. 5 line 1).
    need = float(phi @ x.matrix.sum(axis=1))
    if need > float(capacity.sum()):
        return StoragePlanOutcome(
            placement=x,
            success=False,
            migrations=(),
            overloaded=_overloaded(instance, x),
        )

    inv = instance.network.paths.inv_rate
    migrations: list[tuple[int, int, int]] = []

    for node in _overloaded(instance, x):
        # Targets ordered by channel speed from `node` (Alg. 5 line 11).
        targets = sorted(
            (q for q in range(instance.n_servers) if q != node),
            key=lambda q: inv[node, q],
        )
        guard = instance.n_services * instance.n_servers
        while float(phi @ x.matrix[:, node]) > capacity[node] + _SLACK:
            guard -= 1
            if guard < 0:  # pragma: no cover - defensive
                raise RuntimeError("storage planning failed to converge")
            if config.storage_planning:
                rho = local_demand_factor(instance, x, node)
                if not rho:
                    break
                victim = min(rho, key=rho.get)
            else:
                services = x.services_on(node)
                if services.size == 0:
                    break
                victim = int(services[np.argmax(phi[services])])

            moved = False
            for q in targets:
                if x.has(victim, q):
                    continue
                used_q = float(phi @ x.matrix[:, q])
                if used_q + phi[victim] <= capacity[q] + _SLACK:
                    x.remove(victim, node)
                    x.add(victim, q)
                    migrations.append((victim, node, int(q)))
                    moved = True
                    break
            if not moved:
                break

    still_over = _overloaded(instance, x)
    return StoragePlanOutcome(
        placement=x,
        success=not still_over,
        migrations=tuple(migrations),
        overloaded=still_over,
    )
