"""Request-level fault injection and resilience policies.

:mod:`repro.runtime.failures` models *node* outages: a down node is
degraded out of the solvable state before the slot's provisioning runs.
Real serverless edge deployments also fail *within* a slot, at request
granularity — a backhaul link fades mid-transfer, a container crashes
between two invocations — and the provisioning algorithm only learns
about it one slot later.  This module supplies both halves of that
story:

* **Fault injection** — :class:`FaultInjector` draws a per-slot
  :class:`SlotFaults` realization (degraded links that slow transfers,
  instance crashes that reject invocations until a restart) from a
  seeded, *slot-addressable* stream: the faults of slot ``t`` depend
  only on ``(seed, t)`` and the slot's placement, never on how many
  random numbers earlier slots consumed.
* **Resilience policy** — :class:`ResiliencePolicy` configures how the
  simulated cluster reacts: per-request timeouts derived from the QoS
  deadline ``D_h^max`` (Eq. 4), bounded retry with exponential backoff,
  hedged re-routing to the next-best surviving instance (via the
  incremental :class:`repro.model.engine.BatchRouter`), and graceful
  degradation through :func:`shed_indices` (drop the lowest-priority
  requests when the surviving capacity cannot carry the slot).

With no injector and no policy the runtime behaves exactly as before —
the resilience layer is opt-in and bit-identically absent by default
(``tests/test_runtime_resilience.py`` enforces this).  The full runtime
model, including these semantics, is documented in docs/RUNTIME.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.model.instance import ProblemInstance
from repro.model.placement import Placement
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)


@dataclass(frozen=True)
class FaultConfig:
    """Intensity knobs of the request-level fault process.

    ``link_fail_prob`` — per-slot probability that an (unordered) pair
    of edge nodes has its virtual link degraded for the whole slot;
    ``link_slowdown`` — transfer-time multiplier over a degraded link
    (≥ 1); ``crash_prob`` — per-slot probability that a provisioned
    instance crashes at a uniform time within the slot;
    ``restart_delay`` — seconds a crashed instance rejects invocations
    before its container is restarted (it restarts *cold*).
    """

    link_fail_prob: float = 0.0
    link_slowdown: float = 4.0
    crash_prob: float = 0.0
    restart_delay: float = 10.0

    def __post_init__(self) -> None:
        check_probability("link_fail_prob", self.link_fail_prob)
        check_probability("crash_prob", self.crash_prob)
        check_non_negative("restart_delay", self.restart_delay)
        if self.link_slowdown < 1.0:
            raise ValueError(
                f"link_slowdown must be >= 1, got {self.link_slowdown}"
            )

    @classmethod
    def at_intensity(
        cls,
        intensity: float,
        link_slowdown: float = 4.0,
        restart_delay: float = 10.0,
    ) -> "FaultConfig":
        """Single-knob scaling used by the resilience sweep.

        ``intensity`` ∈ [0, 1] maps to ``crash_prob = intensity`` and
        ``link_fail_prob = intensity / 2`` — at 0 the injector draws no
        faults at all and the runtime is bit-identical to a run without
        an injector.
        """
        check_probability("intensity", intensity)
        return cls(
            link_fail_prob=intensity / 2.0,
            link_slowdown=link_slowdown,
            crash_prob=intensity,
            restart_delay=restart_delay,
        )


class SlotFaults:
    """One slot's realized faults: degraded links + instance crashes."""

    def __init__(
        self,
        config: FaultConfig,
        n_edge_nodes: int,
        degraded_links: frozenset[tuple[int, int]],
        crashes: Mapping[tuple[int, int], float],
    ):
        self.config = config
        self.n_edge_nodes = int(n_edge_nodes)
        #: unordered ``(u, v)`` edge-node pairs with ``u < v``
        self.degraded_links = frozenset(degraded_links)
        #: ``(service, node) -> crash time`` (seconds into the slot)
        self.crashes = dict(crashes)

    @property
    def n_degraded_links(self) -> int:
        """Number of degraded virtual links this slot."""
        return len(self.degraded_links)

    @property
    def n_crashes(self) -> int:
        """Number of instance-crash events this slot."""
        return len(self.crashes)

    def link_factor(self, u: int, v: int) -> float:
        """Transfer-time multiplier for a transfer between ``u`` and ``v``.

        1.0 for healthy links, same-node transfers, and any leg touching
        the cloud (the WAN detour cost is already modelled separately and
        is not subject to edge-radio degradation).
        """
        if u == v or u >= self.n_edge_nodes or v >= self.n_edge_nodes:
            return 1.0
        key = (u, v) if u < v else (v, u)
        return self.config.link_slowdown if key in self.degraded_links else 1.0

    @cached_property
    def link_factors(self) -> list[list[float]]:
        """:meth:`link_factor` for every pair of extended node indices.

        ``link_factors[u][v] == link_factor(u, v)`` for ``u, v`` in
        ``0..n_edge_nodes`` (the last index is the cloud), as nested
        lists so the event loop prices a leg with one lookup.
        """
        ext = range(self.n_edge_nodes + 1)
        return [[self.link_factor(u, v) for v in ext] for u in ext]

    def crashed(self, service: int, node: int, t: float) -> bool:
        """Is the ``(service, node)`` instance down at slot time ``t``?

        An instance is down from its crash time until the restart
        completes (``crash_time + restart_delay``); after the restart it
        serves again (cold — the pool's warmth is evicted on crash).
        """
        tau = self.crashes.get((service, node))
        return tau is not None and tau <= t < tau + self.config.restart_delay


class FaultInjector:
    """Seeded, slot-addressable generator of :class:`SlotFaults`.

    The realization for slot ``t`` is drawn from
    ``SeedSequence([seed, t])``, so it is reproducible per slot and
    independent of the simulator's own RNG streams: enabling fault
    injection never perturbs workload, mobility or arrival randomness.
    """

    def __init__(self, config: FaultConfig = FaultConfig(), seed: int = 0):
        self.config = config
        self.seed = int(seed)

    def for_slot(
        self, slot: int, placement: Placement, horizon: float
    ) -> SlotFaults:
        """Draw the faults of ``slot`` against ``placement``.

        ``horizon`` is the slot length in seconds; crash times are
        uniform in ``[0, horizon)``.  Links are drawn first, then
        crashes over the placement's sorted ``(service, node)`` pairs,
        so the realization is a pure function of (seed, slot,
        placement).
        """
        check_non_negative("slot", slot)
        check_positive("horizon", horizon)
        cfg = self.config
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, int(slot)]))
        n = placement.n_servers

        degraded: set[tuple[int, int]] = set()
        if cfg.link_fail_prob > 0.0 and n > 1:
            roll = rng.random((n, n))
            iu, ju = np.triu_indices(n, k=1)
            hit = roll[iu, ju] < cfg.link_fail_prob
            degraded = {
                (int(u), int(v)) for u, v in zip(iu[hit], ju[hit])
            }

        crashes: dict[tuple[int, int], float] = {}
        if cfg.crash_prob > 0.0:
            pairs = placement.pairs()  # sorted
            if pairs:
                roll = rng.random(len(pairs))
                times = rng.uniform(0.0, horizon, size=len(pairs))
                for idx, pair in enumerate(pairs):
                    if roll[idx] < cfg.crash_prob:
                        crashes[pair] = float(times[idx])
        return SlotFaults(cfg, n, frozenset(degraded), crashes)


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the simulated cluster reacts to request-level faults.

    * **Timeout** — every request gets a completion deadline of
      ``timeout_factor × D_h^max`` (its Eq.-4 deadline); requests with
      an infinite deadline use ``default_timeout``.  A request that has
      not finished by then is recorded as ``status == "timeout"``.
    * **Retry** — an invocation rejected by a crashed instance is
      retried after exponential backoff
      (``backoff_base · backoff_factor^attempt``), at most
      ``max_retries`` times per hop-host.
    * **Hedging** — once retries are exhausted, the crashed instance is
      removed from a live placement copy and the request's remaining
      chain suffix is re-routed to the next-best surviving instances via
      the incremental :class:`repro.model.engine.BatchRouter` (cloud as
      the last resort).
    * **Shedding** — before replay, :func:`shed_indices` drops the
      lowest-priority requests whenever the offered work exceeds
      ``shed_utilization ×`` the surviving compute capacity, so overload
      degrades gracefully instead of timing every request out.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    timeout_factor: float = 3.0
    default_timeout: float = 120.0
    hedging: bool = True
    shedding: bool = True
    shed_utilization: float = 1.5

    def __post_init__(self) -> None:
        check_non_negative("max_retries", self.max_retries)
        check_positive("backoff_base", self.backoff_base)
        check_positive("timeout_factor", self.timeout_factor)
        check_positive("default_timeout", self.default_timeout)
        check_positive("shed_utilization", self.shed_utilization)
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def timeout_for(self, deadline: float) -> float:
        """Per-request timeout derived from the Eq.-4 deadline."""
        if np.isfinite(deadline):
            return self.timeout_factor * float(deadline)
        return self.default_timeout

    def backoff(self, attempt: int) -> float:
        """Backoff delay before retry number ``attempt + 1``."""
        check_non_negative("attempt", attempt)
        return self.backoff_base * self.backoff_factor**attempt


def shed_indices(
    instance: ProblemInstance,
    policy: ResiliencePolicy,
    capacity_gflops: float,
) -> np.ndarray:
    """Lowest-priority requests to shed so the slot stays feasible.

    ``capacity_gflops`` is the surviving compute capacity of the slot
    (Σ node compute × cores × slot length — outage-degraded nodes
    contribute ≈ 0).  While the total requested work exceeds
    ``policy.shed_utilization × capacity``, requests are shed in
    priority order: largest deadline first (most latency-tolerant, i.e.
    lowest priority), then largest compute demand, then highest index —
    a deterministic order, so shedding is reproducible.

    Returns the sorted array of shed request indices (empty when the
    slot fits, or when shedding is disabled on the policy).
    """
    check_positive("capacity_gflops", capacity_gflops)
    if not policy.shedding or instance.n_requests == 0:
        return np.empty(0, dtype=np.int64)
    q = instance.service_compute
    chain_safe = np.where(instance.chain_mask, instance.chain_matrix, 0)
    work = np.where(instance.chain_mask, q[chain_safe], 0.0).sum(axis=1)
    budget = policy.shed_utilization * float(capacity_gflops)
    total = float(work.sum())
    if total <= budget:
        return np.empty(0, dtype=np.int64)
    deadlines = instance.deadlines
    # shed order: least urgent, then heaviest, then newest
    order = sorted(
        range(instance.n_requests),
        key=lambda h: (-deadlines[h], -work[h], -h),
    )
    shed: list[int] = []
    for h in order:
        if total <= budget:
            break
        shed.append(h)
        total -= float(work[h])
    return np.array(sorted(shed), dtype=np.int64)
