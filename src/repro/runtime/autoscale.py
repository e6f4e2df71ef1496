"""Reactive autoscaling: a feedback-control loop over the serverless pools.

SoCL pre-provisions instances statically per slot (Alg. 2); real
serverless edge platforms scale **reactively** from utilization
feedback.  This module closes that gap with a Guardian/Scaler-style
control loop that runs at the slot boundary of the online simulator
(:class:`repro.runtime.simulator.OnlineSimulator`):

* :class:`UtilizationMonitor` — derives per-service utilization,
  queueing-pressure and cloud-spill signals from the telemetry the
  runtime already produces (per-node busy time from
  :class:`~repro.runtime.cluster.SimulatedCluster`, per-request
  queueing delays from the replay engine, routing-derived invocation
  counts), smoothed with an exponential moving average so one noisy
  slot cannot flap the policy;
* :class:`ScalingPolicy` — threshold rules with a **hysteresis band**
  (scale up above the high watermark, down below the low watermark,
  hold in between), per-service **cooldowns** for each direction, and a
  **warm-pool sizing** policy that keeps a configurable fraction of
  each service's replicas pre-warmed;
* :class:`Scaler` — applies the decided actions against the live
  decision state: replica additions/removals edit a
  :class:`~repro.model.placement.Placement` copy (budget- and
  storage-feasible only) and re-route exactly the affected requests via
  :func:`repro.model.routing.partial_reroute`; prewarm/evict actions
  touch the :class:`~repro.runtime.serverless.InstancePool` directly.

The :class:`Autoscaler` facade composes the three and is what the
simulator talks to.  ``reactive=True`` turns it into the pure-reactive
baseline: the solver's per-slot placement is ignored after the first
slot and the replica set evolves *only* through feedback actions —
pair it with :class:`StaticProvisioner` so no per-slot global solve
happens at all.

Every decision is deterministic given the observed telemetry, all
actions are counted under ``runtime.autoscale.*`` (see
docs/OBSERVABILITY.md), and with no autoscaler attached
(``autoscaler=None``) the simulation is **bit-identical** to the static
pipeline — the contract every runtime layer in this repo honors
(docs/RUNTIME.md §8).
The full scaling model is documented in docs/AUTOSCALING.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.model.cost import deployment_cost
from repro.model.instance import ProblemInstance
from repro.model.placement import Placement, Routing
from repro.model.routing import greedy_routing, partial_reroute
from repro.obs import current_tracer
from repro.runtime.serverless import InstancePool
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_non_negative, check_probability


@dataclass(frozen=True)
class AutoscaleConfig:
    """Knobs of the feedback-control loop (docs/AUTOSCALING.md).

    ``high_watermark`` / ``low_watermark`` bound the hysteresis band on
    the per-service pressure signal: above the high watermark a service
    scales up, below the low watermark it scales down, inside the band
    it holds.  ``queue_high`` is an absolute queueing-delay trigger
    (seconds of smoothed per-request queue wait) that forces scale-up
    even at moderate utilization.  ``scale_up_cooldown`` /
    ``scale_down_cooldown`` are the slots a service must wait after an
    action before acting in the same direction again.  ``warm_fraction``
    sizes the keep-warm pool (fraction of each service's replicas
    pre-warmed at the slot boundary, ``warm_floor`` at minimum for
    services with traffic); ``min_replicas`` floors scale-down (0
    allows scale-to-zero with cloud fallback).  ``max_step`` caps
    replicas added or removed per service per slot.  ``ema_alpha``
    weights the newest observation in the signal smoothing.
    """

    high_watermark: float = 0.65
    low_watermark: float = 0.25
    queue_high: float = 1.0
    scale_up_cooldown: int = 0
    scale_down_cooldown: int = 2
    warm_fraction: float = 0.5
    warm_floor: int = 1
    min_replicas: int = 1
    max_step: int = 1
    ema_alpha: float = 0.6

    def __post_init__(self) -> None:
        check_probability("high_watermark", self.high_watermark)
        check_probability("low_watermark", self.low_watermark)
        if self.low_watermark >= self.high_watermark:
            raise ValueError(
                f"low_watermark ({self.low_watermark}) must be below "
                f"high_watermark ({self.high_watermark})"
            )
        check_non_negative("queue_high", self.queue_high)
        check_non_negative("scale_up_cooldown", self.scale_up_cooldown)
        check_non_negative("scale_down_cooldown", self.scale_down_cooldown)
        check_probability("warm_fraction", self.warm_fraction)
        check_non_negative("warm_floor", self.warm_floor)
        check_non_negative("min_replicas", self.min_replicas)
        if self.max_step < 1:
            raise ValueError(f"max_step must be >= 1, got {self.max_step}")
        check_probability("ema_alpha", self.ema_alpha)
        if self.ema_alpha == 0.0:
            raise ValueError("ema_alpha must be > 0 (signals would never update)")


@dataclass
class ServiceSignal:
    """Smoothed telemetry for one service, as seen by the policy.

    ``utilization`` is the invocation-weighted busy fraction of the
    nodes serving the service; ``queueing`` the mean per-request queue
    wait (seconds) of requests whose chain contains it; ``cloud_share``
    the fraction of its invocations that spilled to the cloud;
    ``invocations`` the smoothed per-slot invocation count; and
    ``node_rate`` the smoothed per-edge-node invocation rate used for
    victim selection and warm-pool ranking.
    """

    utilization: float = 0.0
    queueing: float = 0.0
    cloud_share: float = 0.0
    invocations: float = 0.0
    node_rate: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def pressure(self) -> float:
        """Scalar scaling pressure: max of utilization and cloud spill."""
        return max(self.utilization, self.cloud_share)


@dataclass(frozen=True)
class ScalingAction:
    """One decided autoscaling action.

    ``kind`` is ``"up"`` (add a replica), ``"down"`` (remove one),
    ``"prewarm"`` (pre-warm a provisioned instance at the slot start)
    or ``"evict"`` (drop an instance's warmth to reclaim memory).
    """

    kind: str
    service: int
    node: int

    def __post_init__(self) -> None:
        if self.kind not in ("up", "down", "prewarm", "evict"):
            raise ValueError(f"unknown action kind {self.kind!r}")


class UtilizationMonitor:
    """Derives smoothed per-service scaling signals from slot telemetry.

    Fed once per slot (after replay) with the cluster's per-node busy
    times, the slot's routing, and the per-request queueing delays; all
    raw signals are folded into exponential moving averages so the
    policy reacts to sustained pressure, not single-slot noise.
    """

    def __init__(self, alpha: float = 0.6):
        check_probability("alpha", alpha)
        self.alpha = float(alpha)
        self._signals: dict[int, ServiceSignal] = {}
        #: Number of slots observed so far.
        self.slots_observed = 0

    def _ema(self, prev: float, raw: float) -> float:
        """One smoothing step (first observation passes through)."""
        if self.slots_observed == 0:
            return raw
        return self.alpha * raw + (1.0 - self.alpha) * prev

    def observe(
        self,
        instance: ProblemInstance,
        routing: Routing,
        cluster,
        requests: np.ndarray,
        queueing: np.ndarray,
        slot_seconds: float,
    ) -> None:
        """Fold one completed slot's telemetry into the signals.

        ``cluster`` is the slot's :class:`~repro.runtime.cluster.
        SimulatedCluster` (per-node ``busy_time`` is read from its
        nodes); ``requests``/``queueing`` are aligned arrays of
        completed request indices and their total queue waits.
        """
        S, N = instance.n_services, instance.n_servers
        busy = np.array([n.busy_time for n in cluster.nodes], dtype=np.float64)
        cores = np.array([n.cores for n in cluster.nodes], dtype=np.float64)
        node_util = busy / np.maximum(cores * slot_seconds, 1e-12)

        mask = instance.chain_mask
        svc_m = instance.chain_matrix[mask]
        node_m = routing.assignment[mask]
        counts = np.zeros((S, N + 1), dtype=np.float64)
        np.add.at(counts, (svc_m, node_m), 1.0)
        edge_counts = counts[:, :N]
        cloud_counts = counts[:, N]
        total = edge_counts.sum(axis=1) + cloud_counts

        qsum = np.zeros(S)
        qcnt = np.zeros(S)
        requests = np.asarray(requests, dtype=np.int64)
        queueing = np.asarray(queueing, dtype=np.float64)
        if requests.size:
            rmask = instance.chain_mask[requests]
            rsvc = instance.chain_matrix[requests]
            qrep = np.broadcast_to(queueing[:, None], rmask.shape)
            np.add.at(qsum, rsvc[rmask], qrep[rmask])
            np.add.at(qcnt, rsvc[rmask], 1.0)

        for svc in range(S):
            if total[svc] == 0.0 and svc not in self._signals:
                continue  # never requested, nothing to track
            edge = edge_counts[svc]
            edge_total = edge.sum()
            util = (
                float((edge * node_util).sum() / edge_total)
                if edge_total > 0.0
                else 0.0
            )
            cloud_share = (
                float(cloud_counts[svc] / total[svc]) if total[svc] > 0.0 else 0.0
            )
            queue = float(qsum[svc] / qcnt[svc]) if qcnt[svc] > 0.0 else 0.0
            prev = self._signals.get(svc)
            if prev is None or prev.node_rate.size != N:
                prev = ServiceSignal(node_rate=np.zeros(N))
            self._signals[svc] = ServiceSignal(
                utilization=self._ema(prev.utilization, util),
                queueing=self._ema(prev.queueing, queue),
                cloud_share=self._ema(prev.cloud_share, cloud_share),
                invocations=self._ema(prev.invocations, float(total[svc])),
                node_rate=(
                    edge
                    if self.slots_observed == 0
                    else self.alpha * edge + (1.0 - self.alpha) * prev.node_rate
                ),
            )
        self.slots_observed += 1

    def signals(self) -> dict[int, ServiceSignal]:
        """Current smoothed signals, keyed by service index."""
        return dict(self._signals)

    def signal(self, service: int) -> Optional[ServiceSignal]:
        """Smoothed signal for one service (``None`` if never observed)."""
        return self._signals.get(service)


class ScalingPolicy:
    """Threshold rules with hysteresis, cooldowns and warm-pool sizing.

    Stateful only in its per-service cooldown clocks; every decision is
    a pure function of the smoothed signals and the current placement.
    """

    def __init__(self, config: AutoscaleConfig = AutoscaleConfig()):
        self.config = config
        self._last_up: dict[int, int] = {}
        self._last_down: dict[int, int] = {}

    def _feasible_target(
        self,
        instance: ProblemInstance,
        placement: Placement,
        svc: int,
        used: np.ndarray,
        spent: float,
    ) -> Optional[int]:
        """Best feasible node for a new replica (demand-weighted), or None.

        Candidates are ranked by demand-weighted transfer cost (the same
        coverage heuristic the ROI baseline uses); storage and budget
        constraints are enforced before a node qualifies.
        """
        kappa = float(instance.service_cost[svc])
        if spent + kappa > instance.config.budget + 1e-9:
            return None
        phi = float(instance.service_storage[svc])
        demand_nodes = np.nonzero(instance.demand_counts[svc] > 0)[0]
        if demand_nodes.size == 0:
            demand_nodes = np.arange(instance.n_servers)
        weights = np.maximum(
            instance.demand_counts[svc, demand_nodes].astype(np.float64), 1.0
        )
        inv = instance.inv_rate
        score = (
            weights[:, None] * inv[np.ix_(demand_nodes, np.arange(instance.n_servers))]
        ).sum(axis=0)
        for k in (int(v) for v in np.argsort(score, kind="stable")):
            if placement.has(svc, k):
                continue
            if used[k] + phi > instance.server_storage[k] + 1e-9:
                continue
            return k
        return None

    def decide(
        self,
        slot: int,
        signals: dict[int, ServiceSignal],
        instance: ProblemInstance,
        placement: Placement,
    ) -> tuple[list[ScalingAction], int, int]:
        """Decide this slot's replica deltas.

        Returns ``(actions, held, suppressed)``: the up/down actions to
        apply, the number of services held inside the hysteresis band,
        and the number of triggered actions suppressed by a cooldown.
        """
        cfg = self.config
        actions: list[ScalingAction] = []
        held = 0
        suppressed = 0
        used = instance.service_storage.astype(np.float64) @ placement.matrix
        spent = deployment_cost(instance, placement)
        for svc in sorted(signals):
            sig = signals[svc]
            n_replicas = placement.instance_count(svc)
            wants_up = (
                sig.pressure > cfg.high_watermark or sig.queueing > cfg.queue_high
            )
            wants_down = (
                sig.pressure < cfg.low_watermark
                and sig.queueing <= cfg.queue_high
                and n_replicas > cfg.min_replicas
            )
            if wants_up:
                last = self._last_up.get(svc)
                if last is not None and slot - last <= cfg.scale_up_cooldown:
                    suppressed += 1
                    continue
                added = 0
                for _ in range(cfg.max_step):
                    target = self._feasible_target(
                        instance, placement, svc, used, spent
                    )
                    if target is None:
                        break
                    actions.append(ScalingAction("up", svc, target))
                    # account locally so multi-step picks stay feasible
                    placement = placement.copy() if added == 0 else placement
                    placement.add(svc, target)
                    used[target] += float(instance.service_storage[svc])
                    spent += float(instance.service_cost[svc])
                    added += 1
                if added:
                    self._last_up[svc] = slot
            elif wants_down:
                last = self._last_down.get(svc)
                if last is not None and slot - last <= cfg.scale_down_cooldown:
                    suppressed += 1
                    continue
                removed = 0
                hosts = placement.hosts(svc)
                rate = (
                    sig.node_rate
                    if sig.node_rate.size == instance.n_servers
                    else np.zeros(instance.n_servers)
                )
                order = sorted(
                    (int(k) for k in hosts), key=lambda k: (rate[k], k)
                )
                for victim in order[: cfg.max_step]:
                    if placement.instance_count(svc) - removed <= cfg.min_replicas:
                        break
                    actions.append(ScalingAction("down", svc, victim))
                    removed += 1
                if removed:
                    self._last_down[svc] = slot
            else:
                held += 1
        return actions, held, suppressed

    def warm_plan(
        self,
        signals: dict[int, ServiceSignal],
        placement: Placement,
        pool: Optional[InstancePool] = None,
    ) -> list[ScalingAction]:
        """Warm-pool sizing: which instances to pre-warm or let go cold.

        Per service, the top ``ceil(warm_fraction × replicas)`` hosts by
        smoothed invocation rate (at least ``warm_floor`` for services
        with traffic) are pre-warmed at the slot start; remaining hosts
        are evicted so idle replicas stop holding memory.  With
        ``warm_fraction=1.0`` every replica stays warm and nothing is
        evicted.
        """
        cfg = self.config
        plan: list[ScalingAction] = []
        for svc in sorted(signals):
            sig = signals[svc]
            hosts = placement.hosts(svc)
            if hosts.size == 0:
                continue
            target = int(math.ceil(cfg.warm_fraction * hosts.size))
            if sig.invocations > 0.0:
                target = max(target, min(cfg.warm_floor, hosts.size))
            rate = (
                sig.node_rate
                if sig.node_rate.size >= hosts.max() + 1
                else np.zeros(int(hosts.max()) + 1)
            )
            ranked = sorted(
                (int(k) for k in hosts), key=lambda k: (-rate[k], k)
            )
            for k in ranked[:target]:
                plan.append(ScalingAction("prewarm", svc, k))
            for k in ranked[target:]:
                plan.append(ScalingAction("evict", svc, k))
        return plan


@dataclass
class AutoscaleStats:
    """Cumulative action counters of one :class:`Autoscaler` run."""

    slots: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    prewarms: int = 0
    evictions: int = 0
    holds: int = 0
    suppressed_cooldown: int = 0
    reroutes: int = 0


class Scaler:
    """Applies decided actions against the placement, routing and pool."""

    def apply_scaling(
        self,
        instance: ProblemInstance,
        placement: Placement,
        routing: Routing,
        actions: Sequence[ScalingAction],
    ) -> tuple[Placement, Routing, bool]:
        """Apply up/down actions; re-route only the affected requests.

        Returns ``(placement, routing, changed)``.  The input placement
        is never mutated — edits go to a copy.  Requests whose chain
        touches a scaled service re-run the batched routing DP via
        :func:`~repro.model.routing.partial_reroute`; everything else
        keeps the solver's assignment bit-for-bit.
        """
        deltas = [a for a in actions if a.kind in ("up", "down")]
        if not deltas:
            return placement, routing, False
        new = placement.copy()
        touched: set[int] = set()
        for act in deltas:
            if act.kind == "up":
                if not new.has(act.service, act.node):
                    new.add(act.service, act.node)
                    touched.add(act.service)
            else:
                if new.has(act.service, act.node):
                    new.remove(act.service, act.node)
                    touched.add(act.service)
        if not touched:
            return placement, routing, False
        svc_ids = np.fromiter(touched, dtype=np.int64)
        hit = np.isin(instance.chain_matrix, svc_ids) & instance.chain_mask
        rows = np.nonzero(hit.any(axis=1))[0]
        new_routing = partial_reroute(instance, new, rows, routing.assignment)
        return new, new_routing, True

    def apply_pool(
        self,
        pool: InstancePool,
        actions: Sequence[ScalingAction],
        now: float = 0.0,
    ) -> tuple[int, int]:
        """Apply prewarm/evict actions to the live instance pool.

        Prewarms of pairs the placement no longer provisions are
        silently skipped (the pair may have been scaled down in the same
        slot).  Returns ``(n_prewarmed, n_evicted)``.
        """
        prewarmed = evicted = 0
        for act in actions:
            if act.kind == "prewarm":
                if pool.is_provisioned(act.service, act.node):
                    pool.prewarm(act.service, act.node, now)
                    prewarmed += 1
            elif act.kind == "evict":
                before = pool.evictions
                pool.evict(act.service, act.node)
                evicted += pool.evictions - before
        return prewarmed, evicted


class Autoscaler:
    """The slot-boundary feedback-control loop (monitor → policy → scaler).

    ``reactive=False`` (default) is *assist* mode: the solver's per-slot
    placement is the starting point and the autoscaler layers replica
    deltas and warm-pool management on top.  ``reactive=True`` is the
    pure-reactive baseline: after the first slot the solver's placement
    is ignored and the replica set evolves only through feedback —
    combine with :class:`StaticProvisioner` to avoid per-slot solves
    entirely.  The loop's off switch is attaching none
    (``OnlineSimulator(autoscaler=None)``).
    """

    def __init__(
        self,
        config: AutoscaleConfig = AutoscaleConfig(),
        reactive: bool = False,
    ):
        self.config = config
        self.reactive = bool(reactive)
        self.monitor = UtilizationMonitor(alpha=config.ema_alpha)
        self.policy = ScalingPolicy(config)
        self.scaler = Scaler()
        self.stats = AutoscaleStats()
        self.last_actions: tuple[ScalingAction, ...] = ()
        self._placement: Optional[Placement] = None

    @property
    def name(self) -> str:
        """Display label (``AS-reactive`` / ``AS-assist``)."""
        return "AS-reactive" if self.reactive else "AS-assist"

    def adjust(
        self,
        slot: int,
        instance: ProblemInstance,
        placement: Placement,
        routing: Routing,
    ) -> tuple[Placement, Routing, tuple[ScalingAction, ...]]:
        """Slot-boundary hook: apply this slot's scaling decisions.

        Called after the solver commits and before the pool updates.
        Returns the (possibly adjusted) placement and routing plus the
        pool actions (prewarm/evict) to apply once the pool has been
        re-synced to the returned placement.
        """
        tracer = current_tracer()
        shape = (instance.n_services, instance.n_servers)
        if self.reactive and self._placement is not None and (
            self._placement.n_services,
            self._placement.n_servers,
        ) == shape:
            placement = self._placement.copy()
            routing = greedy_routing(instance, placement)
        signals = self.monitor.signals()
        actions, held, suppressed = self.policy.decide(
            slot, signals, instance, placement
        )
        placement, routing, changed = self.scaler.apply_scaling(
            instance, placement, routing, actions
        )
        warm_actions = self.policy.warm_plan(signals, placement)
        self._placement = placement.copy() if self.reactive else None
        all_actions = tuple(actions) + tuple(warm_actions)
        self.last_actions = all_actions
        n_up = sum(1 for a in actions if a.kind == "up")
        n_down = sum(1 for a in actions if a.kind == "down")
        self.stats.slots += 1
        self.stats.scale_ups += n_up
        self.stats.scale_downs += n_down
        self.stats.holds += held
        self.stats.suppressed_cooldown += suppressed
        if changed:
            self.stats.reroutes += 1
        tracer.inc("runtime.autoscale.slots")
        tracer.inc("runtime.autoscale.scale_up", n_up)
        tracer.inc("runtime.autoscale.scale_down", n_down)
        tracer.inc("runtime.autoscale.hold", held)
        tracer.inc("runtime.autoscale.cooldown_suppressed", suppressed)
        tracer.inc("runtime.autoscale.reroutes", int(changed))
        return placement, routing, all_actions

    def apply_pool(
        self,
        pool: InstancePool,
        actions: Sequence[ScalingAction],
        now: float = 0.0,
    ) -> None:
        """Apply the prewarm/evict subset of ``actions`` to ``pool``."""
        prewarmed, evicted = self.scaler.apply_pool(pool, actions, now)
        self.stats.prewarms += prewarmed
        self.stats.evictions += evicted
        tracer = current_tracer()
        tracer.inc("runtime.autoscale.prewarm", prewarmed)
        tracer.inc("runtime.autoscale.evict", evicted)

    def observe(
        self,
        instance: ProblemInstance,
        routing: Routing,
        cluster,
        requests: np.ndarray,
        queueing: np.ndarray,
        slot_seconds: float,
    ) -> None:
        """Post-replay hook: fold the completed slot into the monitor."""
        self.monitor.observe(
            instance, routing, cluster, requests, queueing, slot_seconds
        )


class StaticProvisioner:
    """One-shot provisioner: solve (or cover) once, then hold the placement.

    The pure-reactive baseline's solver stand-in: the first slot either
    delegates to ``inner`` (when given) or builds a minimal coverage
    placement (one storage-feasible, demand-weighted replica per
    requested service — i.e. *no* pre-provisioning beyond existence);
    every later slot re-emits the held placement with fresh greedy
    routing for that slot's requests.  All capacity adaptation is left
    to the :class:`Autoscaler` riding on top.
    """

    def __init__(self, inner=None):
        self.inner = inner
        self.name = (
            f"Static-{getattr(inner, 'name', type(inner).__name__)}"
            if inner is not None
            else "Static"
        )
        self._placement: Optional[Placement] = None

    def reset(self) -> None:
        """Forget the held placement (the next solve re-bootstraps)."""
        self._placement = None

    def _coverage(self, instance: ProblemInstance) -> Placement:
        """Minimal bootstrap: one feasible replica per requested service."""
        x = Placement.empty(instance)
        used = np.zeros(instance.n_servers)
        inv = instance.inv_rate
        for svc in (int(s) for s in instance.requested_services):
            phi = float(instance.service_storage[svc])
            demand_nodes = np.nonzero(instance.demand_counts[svc] > 0)[0]
            if demand_nodes.size == 0:
                continue
            weights = instance.demand_counts[svc, demand_nodes].astype(np.float64)
            score = (
                weights[:, None]
                * inv[np.ix_(demand_nodes, np.arange(instance.n_servers))]
            ).sum(axis=0)
            for k in (int(v) for v in np.argsort(score, kind="stable")):
                if used[k] + phi <= instance.server_storage[k] + 1e-9:
                    x.add(svc, k)
                    used[k] += phi
                    break
        return x

    def solve(self, instance: ProblemInstance):
        """Return the held placement scored against ``instance``.

        First call bootstraps the placement (inner solver or coverage);
        the held matrix is re-validated against the instance shape so a
        scenario change re-bootstraps instead of mis-indexing.
        """
        from repro.baselines.base import finalize

        sw = Stopwatch()
        sw.start()
        shape = (instance.n_services, instance.n_servers)
        if self._placement is None or (
            self._placement.n_services,
            self._placement.n_servers,
        ) != shape:
            if self.inner is not None:
                self._placement = self.inner.solve(instance).placement.copy()
            else:
                self._placement = self._coverage(instance)
        placement = self._placement.copy()
        routing = greedy_routing(instance, placement)
        return finalize(instance, placement, routing, sw.stop())
