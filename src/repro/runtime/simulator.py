"""Time-slotted online simulation driver (paper Figs. 9-10, §V.C).

Reproduces the 4-hour trace experiment: users hop among neighbouring
edge nodes, issue requests each ~5-minute slot with stochastic
service dependencies, and the provisioning algorithm re-runs every slot
on the *observed* state — SoCL's "one-shot decision-making" with no
knowledge of future arrivals.  Each slot's requests are then replayed
through the :class:`repro.runtime.cluster.SimulatedCluster`; the warm
instance pool carries across slots, so re-provisioning churn shows up as
cold starts exactly as it would on Kubernetes.

Two optional failure layers compose here: slot-level node outages
(:mod:`repro.runtime.failures`, the ``outages`` argument) degrade nodes
out of the solvable state before each provision, while request-level
faults (:mod:`repro.runtime.resilience`, the ``faults`` argument)
degrade links and crash instances *within* a slot, after the solver has
committed.  A :class:`~repro.runtime.resilience.ResiliencePolicy`
(``resilience`` argument) governs how the replayed cluster absorbs
those faults — retries, hedged re-routing, timeouts, and admission-time
shedding.  With both arguments left at ``None`` the simulation is
bit-identical to the fault-free code path.

A third optional layer, the reactive autoscaler
(:mod:`repro.runtime.autoscale`, the ``autoscaler`` constructor
argument), hooks the slot boundary: after the solver commits it applies
feedback-driven replica deltas and warm-pool actions, and after replay
it folds the slot's utilization/queueing telemetry into its signals.
Like the failure layers it is bit-identical when absent or disabled.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.microservices.application import Application
from repro.model.instance import ProblemConfig, ProblemInstance
from repro.network.topology import EdgeNetwork
from repro.obs import current_tracer
from repro.runtime.cluster import SimulatedCluster
from repro.runtime.metrics import LatencyRecorder
from repro.runtime.resilience import FaultInjector, ResiliencePolicy, shed_indices
from repro.runtime.serverless import InstancePool, ServerlessConfig
from repro.utils.rng import SeedLike, as_generator, spawn
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_positive
from repro.workload.mobility import RandomWaypointMobility
from repro.workload.users import WorkloadSpec, generate_requests

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SlotRecord:
    """Per-slot outcome of the online simulation."""

    slot: int
    n_requests: int
    objective: float
    cost: float
    mean_latency: float
    max_latency: float
    cold_starts: int
    solver_runtime: float
    churn: float
    n_down_nodes: int = 0
    n_retries: int = 0
    n_hedges: int = 0
    n_shed: int = 0
    n_timeouts: int = 0
    n_failed: int = 0
    #: Provisioned (service, node) instances during the slot — the
    #: capacity the cost metric ``instance-seconds`` integrates.
    n_provisioned: int = 0
    #: Warm instances at the slot start (after autoscaler prewarms).
    n_warm: int = 0
    #: Autoscaler actions taken at this slot's boundary (all zero when
    #: no autoscaler is attached — purely additive reporting).
    n_scale_ups: int = 0
    n_scale_downs: int = 0
    n_prewarms: int = 0
    n_pool_evictions: int = 0
    #: Per-slot phase breakdown (wall seconds).  ``t_generate`` covers
    #: mobility/churn, window generation and the problem build;
    #: ``t_solve`` the provisioning solve; ``t_replay`` the slot's
    #: replay; ``t_observe`` the recorder/autoscaler fold-in.
    t_generate: float = 0.0
    t_solve: float = 0.0
    t_replay: float = 0.0
    t_observe: float = 0.0


@dataclass
class OnlineTraceResult:
    """Full trace outcome for one algorithm."""

    solver_name: str
    slots: list[SlotRecord]
    recorder: LatencyRecorder

    @property
    def mean_delay(self) -> float:
        """Trace-average per-request delay (Fig. 10 headline)."""
        return float(self.recorder.overall()["mean"])

    @property
    def max_delay(self) -> float:
        """Worst per-request delay observed across the trace."""
        return float(self.recorder.overall()["max"])

    @property
    def p99_delay(self) -> float:
        """99th-percentile per-request delay (resilience experiment metric)."""
        return float(self.recorder.overall()["p99"])

    @property
    def completion_rate(self) -> float:
        """Fraction of submitted requests that completed end to end.

        Requests lost to crashes, timeouts, or shedding count against
        this; without faults it is 1.0 by construction.
        """
        total = sum(r.n_requests for r in self.slots)
        done = int(self.recorder.total_count)
        return done / total if total else 1.0

    def slot_means(self) -> np.ndarray:
        """Average delay per slot (Fig. 10's trace series)."""
        return self.recorder.slot_means()

    def instance_seconds(self, slot_seconds: float = 300.0) -> float:
        """Provisioned capacity integrated over the trace (cost metric).

        Each slot contributes ``n_provisioned × slot_seconds`` — the
        serverless bill for keeping those instances allocated, whether
        or not they served traffic.  The autoscale sweep compares this
        against completion rate and p99 latency (docs/AUTOSCALING.md).
        """
        return float(
            sum(r.n_provisioned for r in self.slots) * slot_seconds
        )


class OnlineSimulator:
    """Drives one algorithm through a mobile, time-varying workload."""

    def __init__(
        self,
        network: EdgeNetwork,
        app: Application,
        problem_config: ProblemConfig,
        workload: WorkloadSpec,
        slot_seconds: float = 300.0,
        move_prob: float = 0.3,
        serverless: ServerlessConfig = ServerlessConfig(),
        seed: SeedLike = None,
        fast_replay: bool = True,
        shards: int = 1,
        exact_latencies: bool = False,
        autoscaler=None,
    ):
        check_positive("slot_seconds", slot_seconds)
        self.network = network
        self.app = app
        self.problem_config = problem_config
        self.workload = workload
        self.slot_seconds = float(slot_seconds)
        self.serverless = serverless
        check_positive("shards", shards)
        #: With ``shards > 1`` every fault-free slot replays through the
        #: region-sharded engine (:mod:`repro.runtime.shard`), nodes
        #: cut into equal-size angular sectors around their centroid
        #: (:meth:`~repro.runtime.shard.RegionMap.from_positions`).
        #: Results stay bit-identical to the one-region replay and the
        #: event loop; only the memory/scaling profile changes.
        self.shards = int(shards)
        self.region_map = None
        if self.shards > 1:
            from repro.runtime.shard import RegionMap

            self.region_map = RegionMap.from_positions(
                network.positions, self.shards
            )
        #: Use the vectorized fault-free replay
        #: (:mod:`repro.runtime.replay`) for slots without faults or a
        #: resilience policy; results are bit-identical to the event
        #: loop, so this only changes wall-clock.  Set ``False`` to
        #: force the event loop everywhere (benchmark baseline).
        self.fast_replay = fast_replay
        #: ``True`` keeps every per-request latency in memory
        #: (``mode="exact"`` on the recorder) for golden-result parity
        #: on small runs; the default recorder spills to a streaming
        #: histogram past ~65k samples so trace memory stays flat at
        #: 1M users (see :class:`repro.runtime.metrics.LatencyRecorder`).
        self.exact_latencies = bool(exact_latencies)
        #: Optional :class:`repro.runtime.autoscale.Autoscaler` — the
        #: reactive feedback-control loop over the serverless pools.
        #: Hooked at the slot boundary: ``adjust`` after the solver
        #: commits (replica deltas + warm-pool actions), ``observe``
        #: after replay (utilization/queueing signals).  ``None`` leaves
        #: every slot bit-identical to the static pipeline
        #: (docs/AUTOSCALING.md).
        self.autoscaler = autoscaler
        rng = as_generator(seed)
        self._mobility_rng, self._workload_rng, self._arrival_rng = spawn(rng, 3)
        self.mobility = RandomWaypointMobility(
            network,
            workload.n_users,
            move_prob=move_prob,
            seed=self._mobility_rng,
        )

    def _record_flight_snapshot(
        self, flight, slot: int, record, latencies, replay_cols, cluster
    ) -> None:
        """Capture one per-slot runtime snapshot into ``flight``.

        Fields beyond the recorder's automatic RSS: request counts,
        replay/fixpoint rounds, phase times and (when enabled) the
        autoscaler's state.  Values are numeric or ``None`` per the
        ``snapshot`` record schema.
        """
        fields: dict = {
            "requests": float(record.n_requests),
            "completed": float(latencies.size),
            "cold_starts": float(record.cold_starts),
            "replay_rounds": (
                float(replay_cols.rounds) if replay_cols is not None else None
            ),
            "t_generate": float(record.t_generate),
            "t_solve": float(record.t_solve),
            "t_replay": float(record.t_replay),
            "t_observe": float(record.t_observe),
        }
        shard_stats = cluster.last_shard_stats
        if shard_stats is not None:
            fields["shard_rounds"] = float(shard_stats.rounds)
            fields["shard_exchange_rounds"] = float(
                shard_stats.exchange_rounds
            )
        asc = self.autoscaler
        if asc is not None:
            fields["autoscale_provisioned"] = float(record.n_provisioned)
            fields["autoscale_warm"] = float(record.n_warm)
            fields["autoscale_scale_ups"] = float(asc.stats.scale_ups)
            fields["autoscale_scale_downs"] = float(asc.stats.scale_downs)
            fields["autoscale_prewarms"] = float(asc.stats.prewarms)
            fields["autoscale_evictions"] = float(asc.stats.evictions)
        flight.snapshot(slot, **fields)

    def run(
        self,
        solver,
        n_slots: int,
        volumes: Optional[Sequence[int]] = None,
        outages=None,
        faults: Optional[FaultInjector] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> OnlineTraceResult:
        """Simulate ``n_slots`` slots with ``solver`` re-provisioning.

        ``volumes`` optionally sets the number of active requests per
        slot (from a :class:`repro.workload.trace.TemporalTrace`); it is
        capped at the user population.  ``outages`` is an optional
        :class:`repro.runtime.failures.OutageSchedule`: each slot its
        down nodes are degraded out of the solvable state before the
        solver runs (failure-injection experiments).

        ``faults`` is an optional
        :class:`repro.runtime.resilience.FaultInjector`: after the
        solver commits a placement, per-slot link degradations and
        instance crashes are drawn (slot-addressable, independent of
        the workload RNG streams) and applied during cluster replay.
        Solvers exposing ``note_failures`` (e.g.
        :class:`repro.core.online.OnlineSoCL`) are told which instances
        crashed so the next slot's warm start can route around them.
        ``resilience`` is an optional
        :class:`repro.runtime.resilience.ResiliencePolicy` governing
        retries, hedging, timeouts, and admission-time shedding; without
        it, a crashed invocation is a hard failure.  Both default to
        ``None``, which leaves every placement, routing, and objective
        bit-identical to the fault-free simulation.

        When the simulator was constructed with an ``autoscaler``
        (:mod:`repro.runtime.autoscale`), each slot additionally runs
        the feedback loop: replica deltas and warm-pool actions after
        the solver commits, telemetry observation after replay
        (docs/AUTOSCALING.md).  Without one, the same bit-identity
        contract applies.

        Every slot draws from the RNG streams in one fixed order:
        mobility step, arrival choice, request generation, fault draw,
        then arrival offsets.
        """
        check_positive("n_slots", n_slots)
        tracer = current_tracer()
        recorder = LatencyRecorder(
            mode="exact" if self.exact_latencies else "auto"
        )
        resilient = faults is not None or resilience is not None
        autoscaling = self.autoscaler is not None
        prev_homes = self.mobility.homes
        pool: Optional[InstancePool] = None
        records: list[SlotRecord] = []

        for slot in range(n_slots):
            with tracer.span("slot", index=slot) as slot_span:
                # -- workload window and problem instance --------------
                t0 = time.perf_counter()
                homes = self.mobility.step()
                churn = float(np.mean(homes != prev_homes))
                prev_homes = homes
                instance = self._slot_instance(slot, volumes, homes)
                down: frozenset = frozenset()
                if outages is not None:
                    from repro.runtime.failures import degrade_instance

                    down = outages.step()
                    instance = degrade_instance(instance, down)
                t_generate = time.perf_counter() - t0

                # -- provisioning solve --------------------------------
                sw = Stopwatch()
                with sw.measure(), tracer.span("provision"):
                    result = solver.solve(instance)
                t_solve = sw.elapsed
                placement, routing = result.placement, result.routing

                # -- autoscaler, instance pool, fault draw -------------
                pool_actions: tuple = ()
                if autoscaling:
                    with tracer.span("autoscale"):
                        placement, routing, pool_actions = (
                            self.autoscaler.adjust(
                                slot, instance, placement, routing
                            )
                        )
                if pool is None:
                    pool = InstancePool(placement, self.serverless)
                else:
                    pool.update_placement(placement)
                n_scale_ups = n_scale_downs = 0
                n_prewarms = n_pool_evictions = 0
                if autoscaling:
                    stats = self.autoscaler.stats
                    n_scale_ups = sum(
                        1 for a in pool_actions if a.kind == "up"
                    )
                    n_scale_downs = sum(
                        1 for a in pool_actions if a.kind == "down"
                    )
                    pw_before, ev_before = stats.prewarms, stats.evictions
                    # slot-local clock: 0.0 is the slot start, so the
                    # prewarmed instances stay warm for the whole slot
                    self.autoscaler.apply_pool(pool, pool_actions, now=0.0)
                    n_prewarms = stats.prewarms - pw_before
                    n_pool_evictions = stats.evictions - ev_before
                cold_before = pool.cold_starts
                n_provisioned = pool.n_provisioned
                n_warm = pool.warm_count(0.0)

                slot_faults = None
                if faults is not None:
                    slot_faults = faults.for_slot(
                        slot, placement, self.slot_seconds
                    )
                    if slot_faults.crashes:
                        note = getattr(solver, "note_failures", None)
                        if note is not None:
                            note(sorted(slot_faults.crashes))

                cluster = SimulatedCluster(
                    instance,
                    placement,
                    routing,
                    pool=pool,
                    faults=slot_faults,
                    policy=resilience,
                    fast_replay=self.fast_replay,
                    region_map=self.region_map,
                )
                # arrivals spread uniformly across the slot
                offsets = self._arrival_rng.uniform(
                    0.0, self.slot_seconds, size=instance.n_requests
                )
                shed_set: frozenset = frozenset()
                if resilience is not None and resilience.shedding:
                    capacity = (
                        sum(nd.compute * nd.cores for nd in cluster.nodes)
                        * self.slot_seconds
                    )
                    shed_set = frozenset(
                        int(i)
                        for i in shed_indices(instance, resilience, capacity)
                    )
                    for h in sorted(shed_set):
                        cluster.shed(h, float(offsets[h]))

                # -- replay --------------------------------------------
                t0 = time.perf_counter()
                with tracer.span("replay"):
                    replay_cols = None
                    outcomes: list = []
                    if not shed_set:
                        # Columnar fast path: declines (None) under
                        # faults/resilience or event-order ties, in
                        # which case the event loop below replays the
                        # identical slot.
                        replay_cols = cluster.replay(offsets)
                    if replay_cols is None:
                        arrivals = enumerate(offsets.tolist())
                        if shed_set:
                            arrivals = [
                                a for a in arrivals if a[0] not in shed_set
                            ]
                        outcomes = cluster.run(arrivals=arrivals)
                t_replay = time.perf_counter() - t0

                # -- observe -------------------------------------------
                t0 = time.perf_counter()
                n_retries = n_hedges = n_shed = n_timeouts = n_failed = 0
                if replay_cols is not None:
                    latencies = replay_cols.latency
                    obs_req = replay_cols.request
                    obs_queue = replay_cols.queueing
                else:
                    # the event loop's outcomes, column by column
                    finish = np.array([o.finish for o in outcomes])
                    done = finish == finish  # NaN until completed
                    start = np.array([o.start for o in outcomes])
                    latencies = (finish - start)[done]
                    obs_req = np.array(
                        [o.request for o in outcomes], dtype=np.int64
                    )[done]
                    obs_queue = np.array([o.queueing for o in outcomes])[done]
                    n_retries = sum([o.retries for o in outcomes])
                    n_hedges = sum([o.hedges for o in outcomes])
                    status = [o.status for o in outcomes]
                    n_shed = status.count("shed")
                    n_timeouts = status.count("timeout")
                    n_failed = status.count("failed")
                recorder.record_slot(latencies)
                if autoscaling:
                    self.autoscaler.observe(
                        instance,
                        routing,
                        cluster,
                        obs_req,
                        obs_queue,
                        self.slot_seconds,
                    )
                t_observe = time.perf_counter() - t0

                record = SlotRecord(
                    slot=slot,
                    n_requests=instance.n_requests,
                    objective=result.report.objective,
                    cost=result.report.cost,
                    mean_latency=(
                        float(latencies.mean()) if latencies.size else 0.0
                    ),
                    max_latency=(
                        float(latencies.max()) if latencies.size else 0.0
                    ),
                    cold_starts=pool.cold_starts - cold_before,
                    solver_runtime=t_solve,
                    churn=churn,
                    n_down_nodes=len(down),
                    n_retries=n_retries,
                    n_hedges=n_hedges,
                    n_shed=n_shed,
                    n_timeouts=n_timeouts,
                    n_failed=n_failed,
                    n_provisioned=n_provisioned,
                    n_warm=n_warm,
                    n_scale_ups=n_scale_ups,
                    n_scale_downs=n_scale_downs,
                    n_prewarms=n_prewarms,
                    n_pool_evictions=n_pool_evictions,
                    t_generate=t_generate,
                    t_solve=t_solve,
                    t_replay=t_replay,
                    t_observe=t_observe,
                )
                records.append(record)
                if tracer.enabled:
                    self._trace_slot(
                        tracer, slot_span, record, latencies, replay_cols,
                        cluster, slot_faults, resilient,
                    )
                logger.debug(
                    "slot %d: %d requests, mean latency %.3fs, "
                    "%d cold starts",
                    slot,
                    record.n_requests,
                    record.mean_latency,
                    record.cold_starts,
                )
        return OnlineTraceResult(
            solver_name=getattr(solver, "name", type(solver).__name__),
            slots=records,
            recorder=recorder,
        )

    def _slot_instance(
        self, slot: int, volumes, homes: np.ndarray
    ) -> ProblemInstance:
        """Draw the slot's active users and requests; build the instance."""
        n_active = self.workload.n_users
        if volumes is not None:
            n_active = int(
                min(self.workload.n_users, volumes[slot % len(volumes)])
            )
            n_active = max(1, n_active)
        active = self._arrival_rng.choice(
            self.workload.n_users, size=n_active, replace=False
        )
        requests = generate_requests(
            self.network,
            self.app,
            replace(self.workload, n_users=n_active),
            rng=self._workload_rng,
            homes=homes[active],
        )
        return ProblemInstance(
            self.network, self.app, requests, self.problem_config
        )

    def _trace_slot(
        self, tracer, slot_span, record, latencies, replay_cols, cluster,
        slot_faults, resilient: bool,
    ) -> None:
        """Emit one slot's span attributes, counters and histograms."""
        slot_span.set_attr(
            n_requests=record.n_requests,
            completed=int(latencies.size),
            cold_starts=record.cold_starts,
            churn=round(record.churn, 4),
            n_down_nodes=record.n_down_nodes,
            t_solve_ms=round(record.t_solve * 1e3, 3),
            t_replay_ms=round(record.t_replay * 1e3, 3),
        )
        tracer.inc("runtime.slots")
        tracer.inc("runtime.requests_total", record.n_requests)
        tracer.inc("runtime.requests_completed", int(latencies.size))
        tracer.inc(
            "runtime.requests_dropped",
            record.n_requests - int(latencies.size),
        )
        tracer.inc("runtime.cold_starts", record.cold_starts)
        tracer.inc("runtime.node_down_slots", int(bool(record.n_down_nodes)))
        # fixed-memory streaming histograms: per-request completion
        # latency / queueing delay and per-slot fixpoint rounds
        # (docs/OBSERVABILITY.md)
        tracer.observe_many("runtime.latency.completion", latencies)
        if replay_cols is not None:
            tracer.observe_many(
                "runtime.latency.queueing", replay_cols.queueing
            )
            tracer.observe("runtime.replay.rounds", replay_cols.rounds)
            tracer.inc("runtime.replay_fast_slots")
            tracer.inc("runtime.replay_rounds", replay_cols.rounds)
            shard_stats = cluster.last_shard_stats
            if shard_stats is not None:
                tracer.inc("runtime.shard.slots")
                tracer.inc("runtime.shard.rounds", shard_stats.rounds)
                tracer.inc(
                    "runtime.shard.exchange_rounds",
                    shard_stats.exchange_rounds,
                )
                tracer.inc(
                    "runtime.shard.boundary_invocations",
                    shard_stats.boundary_invocations,
                )
                tracer.inc(
                    "runtime.shard.local_invocations",
                    shard_stats.local_invocations,
                )
                tracer.inc(
                    "runtime.shard.ready_values_exchanged",
                    shard_stats.ready_values_exchanged,
                )
                tracer.inc(
                    "runtime.shard.start_values_exchanged",
                    shard_stats.start_values_exchanged,
                )
        elif not resilient:
            tracer.inc("runtime.replay_fallback_slots")
        if resilient:
            slot_span.set_attr(
                retries=record.n_retries,
                hedges=record.n_hedges,
                shed=record.n_shed,
                timeouts=record.n_timeouts,
            )
            tracer.inc("runtime.retries", record.n_retries)
            tracer.inc("runtime.hedges", record.n_hedges)
            tracer.inc("runtime.shed", record.n_shed)
            tracer.inc("runtime.timeouts", record.n_timeouts)
            tracer.inc("runtime.failed", record.n_failed)
            if slot_faults is not None:
                tracer.inc("runtime.instance_crashes", slot_faults.n_crashes)
                tracer.inc(
                    "runtime.degraded_links", slot_faults.n_degraded_links
                )
        flight = getattr(tracer, "flight", None)
        if flight is not None:
            self._record_flight_snapshot(
                flight, record.slot, record, latencies, replay_cols, cluster
            )
