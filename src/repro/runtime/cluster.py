"""Simulated edge cluster: nodes, queues, transfers, request execution.

Models the paper's testbed (§V.C): edge nodes with bounded compute
serve microservice invocations from FIFO per-core queues; data moves
between nodes over the substrate network's virtual links; a master
dispatches each user request along its routed chain

    upload → [process m_1] → transfer → [process m_2] → … → return

and records the end-to-end completion time.  Cold starts from
:mod:`repro.runtime.serverless` add to processing where applicable;
requests whose service has no edge instance detour to the cloud with
the instance's configured WAN transfer cost.

Requests run on the cluster's own discrete-event loop: a binary heap of
plain tuples ordered by ``(time, seq)``, ``seq`` a per-cluster counter,
each dispatched inline as one of three kinds (a request arrives, an
invocation is admitted at its node, a result reaches home).  Fault-free
slots usually skip the loop: :meth:`SimulatedCluster.replay` commits
the same outcomes through the fixpoint engine of
:mod:`repro.runtime.shard`.

The optional resilience layer (:mod:`repro.runtime.resilience`) adds
request-level faults and the policies that absorb them: degraded links
multiply transfer times, crashed instances reject invocations, and a
:class:`~repro.runtime.resilience.ResiliencePolicy` turns those hard
failures into bounded retries with exponential backoff, hedged
re-routing to the next-best surviving instance (via the incremental
:class:`repro.model.engine.BatchRouter`), per-request timeouts derived
from the Eq.-4 deadline (a due time each entry of the request carries,
checked as the entry pops), and admission-time shedding.  Without faults
and policy the cluster is bit-identical to the pre-resilience code
path.

The cluster is deterministic given its inputs — queueing delays emerge
purely from request overlap (and the injected fault realization).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.model.engine import BatchRouter
from repro.model.instance import ProblemInstance
from repro.model.placement import Placement, Routing
from repro.runtime.replay import NODE_CORES, ReplayResult
from repro.runtime.resilience import ResiliencePolicy, SlotFaults
from repro.runtime.serverless import InstancePool, ServerlessConfig
from repro.runtime.shard import replay_slot
from repro.utils.validation import check_positive

# kinds of event-loop entry: a request arrives, an invocation is
# admitted at its node, a request's result reaches home
_BEGIN, _PROCESS, _FINISH = 0, 1, 2


@dataclass(slots=True)
class RequestOutcome:
    """Completion record of one dispatched request.

    ``status`` is ``"ok"`` for requests that ran (or are still running)
    normally, ``"timeout"`` when the resilience policy's per-request
    timeout fired first, ``"shed"`` for requests dropped at admission,
    and ``"failed"`` for hard failures (a crashed instance with no
    policy to absorb it).  ``retries``/``hedges`` count the policy
    actions spent on the request.
    """

    request: int
    start: float
    finish: float = np.nan
    queueing: float = 0.0
    cold_start: float = 0.0
    retries: int = 0
    hedges: int = 0
    status: str = "ok"

    @property
    def latency(self) -> float:
        """End-to-end completion time (NaN while incomplete)."""
        return self.finish - self.start

    @property
    def done(self) -> bool:
        """True once the request completed end to end."""
        return self.finish == self.finish  # NaN != NaN


class _Node:
    """FIFO multi-core compute server."""

    def __init__(self, index: int, compute: float, cores: int):
        self.index = index
        self.compute = compute
        self.cores = cores
        # next free time per core (earliest first)
        self.core_free = [0.0] * cores
        self.busy_time = 0.0

    def enqueue(self, now: float, work_gflop: float) -> tuple[float, float]:
        """Admit ``work_gflop`` at ``now``; returns (finish_time, queue_wait)."""
        service_time = work_gflop / self.compute
        core_free = self.core_free
        free = min(core_free)
        core = core_free.index(free)  # ties go to the first core
        start = free if free > now else now
        finish = start + service_time
        core_free[core] = finish
        self.busy_time += service_time
        return finish, start - now


class _HopTable:
    """One slot's routed hops and their base transfer times, as lists.

    Built on the first :meth:`SimulatedCluster.submit`, so slots the
    fixpoint replays never pay for it.  The per-position tables are
    flat, ``width`` cells per row: request ``h``'s routed row starts at
    ``h * width``, and a hedge appends a re-routed row at the end.  At
    ``row + pos``, ``nodes`` holds the routed node of chain position
    ``pos``, ``chains`` its service, and ``legs`` the transfer time of
    the leg leaving it — to the next position, or home from the last
    one.  ``upload[h]`` is the leg from home to the first position.
    Each time is the IEEE product ``bytes * inv_rate[u, v]`` the
    per-hop scalar code formed; the event loop multiplies a degraded
    link's factor on top, leg by leg.
    """

    __slots__ = (
        "width", "nodes", "chains", "legs", "upload", "lengths", "homes",
        "deadlines", "compute", "inv_rate", "provisioned", "link", "cloud",
        "cloud_compute",
    )

    def __init__(
        self,
        instance: ProblemInstance,
        placement: Placement,
        routing: Routing,
        faults: Optional[SlotFaults],
    ):
        nodes = routing.assignment
        lengths = instance.chain_lengths
        homes = instance.homes
        inv = instance.inv_rate
        n_req, width = nodes.shape
        last = (np.arange(n_req), lengths - 1)
        # destination and volume of the leg leaving each position; cells
        # past a chain's end (node -1) price to 0 and are never read
        dst = np.full_like(nodes, -1)
        dst[:, :-1] = nodes[:, 1:]
        dst[last] = homes
        volume = np.zeros(nodes.shape)
        volume[:, :-1] = instance.edge_data_matrix[:, : width - 1]
        volume[last] = instance.data_out
        legs = volume * inv[nodes, dst]
        self.width = width
        self.nodes = nodes.ravel().tolist()
        self.chains = instance.chain_matrix.ravel().tolist()
        self.legs = legs.ravel().tolist()
        self.upload = (instance.data_in * inv[homes, nodes[:, 0]]).tolist()
        self.lengths = lengths.tolist()
        self.homes = homes.tolist()
        self.deadlines = instance.deadlines.tolist()
        self.compute = instance.service_compute.tolist()
        self.inv_rate = inv.tolist()
        self.provisioned = set(placement.pairs())
        self.link = faults.link_factors if faults is not None else None
        self.cloud = instance.cloud
        self.cloud_compute = instance.config.cloud_compute


class SimulatedCluster:
    """Executable model of the edge cluster for one provisioning epoch."""

    def __init__(
        self,
        instance: ProblemInstance,
        placement: Placement,
        routing: Routing,
        serverless: Optional[ServerlessConfig] = None,
        pool: Optional[InstancePool] = None,
        faults: Optional[SlotFaults] = None,
        policy: Optional[ResiliencePolicy] = None,
        fast_replay: bool = True,
        region_map=None,
    ):
        self.instance = instance
        self.placement = placement
        self.routing = routing
        self.faults = faults
        self.policy = policy
        #: Allow the vectorized fault-free fast path (see
        #: :mod:`repro.runtime.replay`).  Cleared automatically after a
        #: declined replay so the event loop is not re-attempted against
        #: the same slot.
        self.fast_replay = fast_replay
        #: Event-loop entries executed so far (0 after a fast replay).
        self.events_processed = 0
        # the event heap: (time, seq, kind, h, outcome, row, pos,
        # attempt, t_out) tuples; seq is unique, so the heap orders by
        # (time, seq) alone
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._now = 0.0
        self.nodes = [
            _Node(k, float(c), NODE_CORES)
            for k, c in enumerate(instance.network.compute)
        ]
        self.pool = pool if pool is not None else InstancePool(
            placement, serverless or ServerlessConfig()
        )
        #: Optional region partition (:class:`repro.runtime.shard.RegionMap`).
        #: When set, :meth:`replay` runs the fixpoint over these regions
        #: and records its :class:`~repro.runtime.shard.ShardStats` in
        #: :attr:`last_shard_stats`; the committed outcomes are the same
        #: for every region map.
        self.region_map = region_map
        self.last_shard_stats = None
        self.outcomes: list[RequestOutcome] = []
        # hedging state, built lazily on the first crash that exhausts
        # its retries: a live placement copy that loses crashed
        # instances, re-routed incrementally by a BatchRouter
        self._live_placement: Optional[Placement] = None
        self._router: Optional[BatchRouter] = None
        self._hedged_routing: Optional[Routing] = None
        self._hops: Optional[_HopTable] = None

    # ------------------------------------------------------------------
    def submit(self, h: int, at: float) -> RequestOutcome:
        """Schedule request ``h`` to arrive at absolute time ``at``."""
        return self._admit([(h, at)])[0]

    def _admit(self, arrivals: list) -> list[RequestOutcome]:
        """Validate ``(request, time)`` arrivals, then schedule them.

        Every arrival is checked before any is scheduled.  Each gets a
        begin entry that carries its timeout's due time, ``inf`` without
        a policy.
        """
        n = self.instance.n_requests
        now = self._now
        for h, at in arrivals:
            if not (0 <= h < n):
                raise IndexError(f"request {h} outside instance of size {n}")
            if at < 0:
                raise ValueError(
                    f"arrival time must be non-negative, got {at}"
                )
            if at < now:
                raise ValueError(
                    f"cannot schedule into the past (time={at} < now={now})"
                )
        hops = self._hops
        if hops is None:
            hops = self._hops = _HopTable(
                self.instance, self.placement, self.routing, self.faults
            )
        outcomes = [RequestOutcome(h, at) for h, at in arrivals]
        self.outcomes += outcomes
        if self.policy is None:
            due = [np.inf] * len(arrivals)
        else:
            deadlines = hops.deadlines
            timeout = {d: self.policy.timeout_for(d) for d in set(deadlines)}
            due = [at + timeout[deadlines[h]] for h, at in arrivals]
        heap = self._heap
        seq = self._seq
        width = hops.width
        for (h, at), outcome, t_out in zip(arrivals, outcomes, due):
            heapq.heappush(
                heap, (at, next(seq), _BEGIN, h, outcome, h * width, 0, 0, t_out)
            )
        return outcomes

    def shed(self, h: int, at: float = 0.0) -> RequestOutcome:
        """Record request ``h`` as shed at admission (never dispatched).

        Used by the graceful-degradation policy: the request counts as
        incomplete with ``status == "shed"`` instead of entering the
        cluster and timing out under overload.
        """
        if not (0 <= h < self.instance.n_requests):
            raise IndexError(
                f"request {h} outside instance of size {self.instance.n_requests}"
            )
        outcome = RequestOutcome(request=h, start=at, status="shed")
        self.outcomes.append(outcome)
        return outcome

    def _loop(self, until: Optional[float], max_events: int) -> None:
        """Pop entries in ``(time, seq)`` order and dispatch them inline.

        An entry of a request that is no longer ``"ok"`` is dropped.  A
        request whose timeout is due by the entry's time is abandoned
        where it stands: its due time ``t_out`` was fixed at submit,
        before any later entry of the request, so a tie goes to the
        timeout.  With ``until`` the loop stops at the first entry past
        the horizon, and every request whose timeout is due by then is
        marked, as its pending entry never will be before the horizon.
        """
        heap = self._heap
        if not heap:
            return
        pop = heapq.heappop
        push = heapq.heappush
        seq = self._seq
        hops = self._hops
        nodes, chains, legs = hops.nodes, hops.chains, hops.legs
        lengths, compute, link = hops.lengths, hops.compute, hops.link
        provisioned, cloud = hops.provisioned, hops.cloud
        cluster_nodes = self.nodes
        faults = self.faults
        crashes = faults.crashes if faults is not None else {}
        invoke = self.pool.invoke
        horizon = np.inf if until is None else until
        now = self._now
        executed = 0
        while heap:
            if executed == max_events:
                self._now = now
                self.events_processed += executed
                raise RuntimeError(
                    f"event budget exhausted after {max_events} events "
                    f"at t={now}"
                )
            entry = pop(heap)
            if entry[0] > horizon:
                push(heap, entry)
                now = until
                break
            now, _, kind, h, outcome, row, pos, attempt, t_out = entry
            executed += 1
            if outcome.status != "ok":
                continue
            if now >= t_out:
                outcome.status = "timeout"
            elif kind == _PROCESS:
                cell = row + pos
                svc = chains[cell]
                node = nodes[cell]
                if node == cloud:
                    # cloud executes without queueing at its large capacity
                    finish = now + compute[svc] / hops.cloud_compute
                    wait = 0.0
                    penalty = 0.0
                else:
                    key = (svc, node)
                    if key in crashes and faults.crashed(svc, node, now):
                        self._on_crash(
                            now, h, outcome, row, pos, attempt, svc, node,
                            t_out,
                        )
                        continue
                    penalty = (
                        invoke(svc, node, now) if key in provisioned else 0.0
                    )
                    finish, wait = cluster_nodes[node].enqueue(
                        now + penalty, compute[svc]
                    )
                outcome.queueing += wait
                outcome.cold_start += penalty
                # the leg leaving this position: to the next one, or home
                transfer = legs[cell]
                pos += 1
                if pos < lengths[h]:
                    if link is not None:
                        transfer = transfer * link[node][nodes[cell + 1]]
                    kind = _PROCESS
                else:
                    if link is not None:
                        transfer = transfer * link[node][hops.homes[h]]
                    kind = _FINISH
                # now + delay, the delay summed first: the float order
                # every recorded digest was computed in
                push(heap, (now + ((finish - now) + transfer), next(seq), kind,
                            h, outcome, row, pos, 0, t_out))
            elif kind == _BEGIN:
                # upload leg
                delay = hops.upload[h]
                if link is not None:
                    delay = delay * link[hops.homes[h]][nodes[row]]
                push(heap, (now + delay, next(seq), _PROCESS, h, outcome, row,
                            0, 0, t_out))
            else:
                outcome.finish = now
        self._now = now
        self.events_processed += executed
        if until is not None:
            for entry in heap:
                outcome = entry[4]
                if entry[8] <= until and outcome.status == "ok":
                    outcome.status = "timeout"

    def _on_crash(
        self,
        now: float,
        h: int,
        outcome: RequestOutcome,
        row: int,
        pos: int,
        attempt: int,
        svc: int,
        node: int,
        t_out: float,
    ) -> None:
        """An invocation hit a crashed instance: retry, hedge, or fail."""
        self.pool.evict(svc, node)  # the crashed container restarts cold
        policy = self.policy
        if policy is None:
            outcome.status = "failed"
            return
        if attempt < policy.max_retries:
            outcome.retries += 1
            heapq.heappush(
                self._heap,
                (now + policy.backoff(attempt), next(self._seq), _PROCESS, h,
                 outcome, row, pos, attempt + 1, t_out),
            )
            return
        if not policy.hedging:
            outcome.status = "failed"
            return
        self._hedge(now, h, outcome, row, pos, svc, node, t_out)

    def _hedge(
        self,
        now: float,
        h: int,
        outcome: RequestOutcome,
        row: int,
        pos: int,
        svc: int,
        node: int,
        t_out: float,
    ) -> None:
        """Re-route the request's remaining suffix off the crashed instance.

        The crashed ``(svc, node)`` pair is removed from a live placement
        copy and the :class:`BatchRouter` recomputes the optimal
        assignment incrementally (a crash is a pure removal, so only the
        requests whose route used the crashed instance re-route);
        the request resumes at its re-routed hop after paying the
        transfer from the crashed node to the surviving one.  When the
        service has no surviving edge instance the router falls back to
        the cloud, which never crashes.  Only the legs of the re-routed
        suffix are re-priced.
        """
        if self._router is None:
            self._live_placement = self.placement.copy()
            self._router = BatchRouter(self.instance)
        assert self._live_placement is not None
        if self._live_placement.has(svc, node):
            self._live_placement.remove(svc, node)
            self._hedged_routing = self._router.route(self._live_placement)
        elif self._hedged_routing is None:
            self._hedged_routing = self._router.route(self._live_placement)
        outcome.hedges += 1
        hops = self._hops
        inst = self.instance
        inv = hops.inv_rate
        width = hops.width
        length = hops.lengths[h]
        # the re-routed row: the done prefix, then the hedged suffix
        new_row = len(hops.nodes)
        nodes = hops.nodes[row : row + pos] + (
            self._hedged_routing.assignment[h, pos:].tolist()
        )
        edge_data = inst.edge_data_matrix[h].tolist()
        legs = hops.legs[row : row + pos]
        for p in range(pos, length - 1):
            legs.append(edge_data[p] * inv[nodes[p]][nodes[p + 1]])
        legs.append(
            float(inst.data_out[h]) * inv[nodes[length - 1]][hops.homes[h]]
        )
        legs += [0.0] * (width - length)
        hops.nodes += nodes
        hops.legs += legs
        hops.chains += hops.chains[h * width : (h + 1) * width]
        target = nodes[pos]
        w_in = float(inst.data_in[h]) if pos == 0 else edge_data[pos - 1]
        transfer = w_in * inv[node][target]
        if hops.link is not None:
            transfer = transfer * hops.link[node][target]
        heapq.heappush(
            self._heap,
            (now + transfer, next(self._seq), _PROCESS, h, outcome, new_row,
             pos, 0, t_out),
        )

    # ------------------------------------------------------------------
    def _replay_eligible(self) -> bool:
        """Whether the vectorized fault-free fast path may run."""
        return (
            self.fast_replay
            and self.faults is None
            and self.policy is None
            and not self.outcomes
            and self.events_processed == 0
            and not self._heap
        )

    def replay(
        self,
        at: Sequence[float],
        requests: Optional[Sequence[int]] = None,
    ) -> Optional[ReplayResult]:
        """Replay arrivals in batch through the vectorized fast path.

        ``at`` gives arrival times; ``requests`` the matching request
        indices (defaults to ``0..len(at)-1``, i.e. one arrival per
        instance request in order).  Returns a columnar
        :class:`~repro.runtime.replay.ReplayResult` whose values are
        bit-identical to the event loop's outcomes, or ``None`` when the
        fast path declines — a fault injector or resilience policy is
        active, the cluster already ran, or the slot needs event-driven
        tie-breaking — in which case no state was touched and
        :meth:`run` must be used.  A declined replay clears
        :attr:`fast_replay` so subsequent :meth:`run` calls go straight
        to the event loop.  Inputs are validated up front with the same
        errors as :meth:`submit`.
        """
        if not self._replay_eligible():
            return None
        at_arr = np.asarray(at, dtype=np.float64)
        if requests is None:
            req_arr = np.arange(at_arr.size, dtype=np.int64)
        else:
            req_arr = np.asarray(requests, dtype=np.int64)
        if req_arr.shape != at_arr.shape or at_arr.ndim != 1:
            raise ValueError(
                f"requests/at must be equal-length 1-D, got shapes "
                f"{req_arr.shape} and {at_arr.shape}"
            )
        n = self.instance.n_requests
        bad = (req_arr < 0) | (req_arr >= n)
        if bad.any():
            h = int(req_arr[int(np.argmax(bad))])
            raise IndexError(f"request {h} outside instance of size {n}")
        neg = at_arr < 0
        if neg.any():
            raise ValueError(
                "arrival time must be non-negative, got "
                f"{at_arr[int(np.argmax(neg))]}"
            )
        if self.region_map is not None:
            from repro.runtime.shard import replay_slot_sharded

            sharded = replay_slot_sharded(
                self.instance,
                self.placement,
                self.routing,
                self.pool,
                self.nodes,
                req_arr,
                at_arr,
                self.region_map,
            )
            if sharded is None:
                self.fast_replay = False
                return None
            self.last_shard_stats = sharded.stats
            return sharded.result
        result = replay_slot(
            self.instance,
            self.placement,
            self.routing,
            self.pool,
            self.nodes,
            req_arr,
            at_arr,
        )
        if result is None:
            self.fast_replay = False
        return result

    def _materialize(self, result: ReplayResult) -> None:
        """Expand a columnar replay result into ``RequestOutcome`` objects."""
        req = result.request.tolist()
        start = result.start.tolist()
        finish = result.finish
        queueing = result.queueing
        cold = result.cold_start
        append = self.outcomes.append
        for i in range(len(req)):
            append(
                RequestOutcome(
                    request=req[i],
                    start=start[i],
                    finish=finish[i],
                    queueing=queueing[i],
                    cold_start=cold[i],
                )
            )

    def run(
        self,
        arrivals: Optional[Iterable[tuple[int, float]]] = None,
        until: Optional[float] = None,
    ) -> list[RequestOutcome]:
        """Dispatch ``arrivals`` ((request, time) pairs; defaults to all
        requests at t=0) and run to completion.

        Fault-free runs take the vectorized fast path of :meth:`replay`
        when possible (bit-identical outcomes, no event heap); everything
        else — faults, resilience policies, ``until`` horizons,
        incremental use, malformed arrivals, a declined replay — runs
        through the discrete-event loop.
        """
        if arrivals is None:
            arrivals = [(h, 0.0) for h in range(self.instance.n_requests)]
        else:
            arrivals = list(arrivals)
        if until is None and arrivals and self._replay_eligible():
            try:
                arr = np.asarray(arrivals, dtype=np.float64)
            except (TypeError, ValueError):
                arr = None
            if (
                arr is not None
                and arr.ndim == 2
                and arr.shape[1] == 2
                and np.all(arr[:, 0] == np.floor(arr[:, 0]))
            ):
                # same engine as :meth:`replay` (sharded when a region
                # map is set); it validates ranges and may decline
                result = self.replay(arr[:, 1], arr[:, 0].astype(np.int64))
                if result is not None:
                    self._materialize(result)
                    return self.outcomes
        self._admit(arrivals)
        self._loop(until, max_events=10_000_000)
        return self.outcomes

    def latencies(self) -> np.ndarray:
        """Latencies of completed requests."""
        return np.array([o.latency for o in self.outcomes if o.done])

    def utilization(self, horizon: float) -> np.ndarray:
        """Per-node busy fraction over ``horizon`` seconds."""
        check_positive("horizon", horizon)
        return np.array(
            [n.busy_time / (n.cores * horizon) for n in self.nodes]
        )
