"""Extension bench: online warm-start SoCL, failure resilience, and the
vectorized trace-replay fast path.

Not a paper figure — these quantify the repository's extensions
(DESIGN.md §5 + paper future work):

* warm-start (:class:`repro.core.online.OnlineSoCL`) must match
  scratch-re-solve quality within 10 % while cutting per-slot solver
  time;
* under node-failure injection the pipeline must keep producing
  feasible placements on the surviving nodes;
* the fixpoint replay engine (``repro.runtime.shard``) must beat the
  discrete-event loop by ≥5× on the fig-10-shaped trace at 10k users
  while staying bit-identical — the paired before/after numbers are
  recorded in ``BENCH_online.json`` (methodology in EXPERIMENTS.md).
"""

import statistics
import time

import numpy as np
import pytest

from repro.core import OnlineSoCL, SoCL
from repro.microservices import eshop_application
from repro.model import Placement, ProblemConfig, ProblemInstance, optimal_routing
from repro.network import stadium_topology
from repro.runtime import (
    OnlineSimulator,
    OutageSchedule,
    ServerlessConfig,
    SimulatedCluster,
)
from repro.workload import WorkloadSpec, generate_requests


def _slot_instances(n_slots: int, n_users: int = 40, seed: int = 0):
    net = stadium_topology(12, seed=3)
    app = eshop_application()
    cfg = ProblemConfig(weight=0.5, budget=6000.0)
    rng = np.random.default_rng(seed)
    return [
        ProblemInstance(
            net,
            app,
            generate_requests(
                net, app, WorkloadSpec(n_users=n_users, data_scale=5.0), rng=rng
            ),
            cfg,
        )
        for _ in range(n_slots)
    ]


def test_online_warm_start_speed(benchmark):
    instances = _slot_instances(6)

    def run_online():
        solver = OnlineSoCL(shift_threshold=10.0)  # warm after slot 1
        return [solver.solve(inst) for inst in instances]

    results = benchmark.pedantic(run_online, rounds=1, iterations=1)
    scratch = [SoCL().solve(inst) for inst in instances]

    online_obj = [r.report.objective for r in results]
    scratch_obj = [r.report.objective for r in scratch]
    online_rt = sum(r.runtime for r in results[1:])
    scratch_rt = sum(r.runtime for r in scratch[1:])

    benchmark.extra_info["figure"] = "online-extension"
    benchmark.extra_info["online_runtime"] = online_rt
    benchmark.extra_info["scratch_runtime"] = scratch_rt
    benchmark.extra_info["worst_quality_ratio"] = max(
        o / s for o, s in zip(online_obj[1:], scratch_obj[1:])
    )
    print(
        f"\nwarm-start: solver time {scratch_rt:.2f}s → {online_rt:.2f}s, "
        f"worst quality ratio "
        f"{max(o / s for o, s in zip(online_obj[1:], scratch_obj[1:])):.3f}"
    )
    assert all(r.feasibility.feasible for r in results)
    assert all(r.extra["mode"] == "incremental" for r in results[1:])
    assert online_rt < scratch_rt
    for o, s in zip(online_obj[1:], scratch_obj[1:]):
        assert o <= 1.10 * s


def test_online_failure_resilience(benchmark):
    net = stadium_topology(12, seed=3)
    app = eshop_application()

    def run():
        sim = OnlineSimulator(
            net,
            app,
            ProblemConfig(weight=0.5, budget=6000.0),
            WorkloadSpec(n_users=15, data_scale=5.0),
            seed=42,
        )
        sched = OutageSchedule(12, fail_prob=0.2, repair_prob=0.5, seed=1)
        return sim.run(SoCL(), n_slots=5, outages=sched)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    down_slots = sum(1 for s in res.slots if s.n_down_nodes > 0)
    benchmark.extra_info["figure"] = "failure-extension"
    benchmark.extra_info["mean_delay"] = res.mean_delay
    benchmark.extra_info["slots_with_outage"] = down_slots
    print(
        f"\nfailure injection: {down_slots}/5 slots degraded, "
        f"mean delay {res.mean_delay:.3f}s"
    )
    assert down_slots > 0  # the schedule actually injected failures
    assert np.isfinite(res.mean_delay)
    assert all(np.isfinite(s.mean_latency) for s in res.slots)


# --------------------------------------------------------------------------
# Trace-replay fast path (repro.runtime.shard)
# --------------------------------------------------------------------------

#: Arrival rate (req/s) of the fig-10-shaped trace.  Constant across
#: scales so node utilization stays in the realistic ~0.05 regime where
#: the fixpoint converges in O(10) rounds at every n_users.
_REPLAY_RATE = 5.0


def _fig10_slot(n_users: int, rate: float = _REPLAY_RATE):
    """One fig-10-shaped slot: stadium topology, eshop app, full placement."""
    net = stadium_topology(16, seed=0)
    app = eshop_application()
    spec = WorkloadSpec(n_users=n_users, data_scale=5.0)
    batch = generate_requests(net, app, spec, rng=0)
    inst = ProblemInstance(net, app, batch, ProblemConfig(weight=0.5, budget=6000.0))
    placement = Placement.full(inst)
    routing = optimal_routing(inst, placement)
    gen = np.random.default_rng(1)
    at = np.sort(gen.uniform(0.0, n_users / rate, size=n_users))
    arrivals = [(h, float(at[h])) for h in range(n_users)]
    return inst, placement, routing, arrivals


@pytest.mark.parametrize(
    "n_users", [1000, 10000, 100000], ids=["n1k", "n10k", "n100k"]
)
def test_replay_trace_speed(benchmark, n_users):
    """Paired before/after: event loop vs vectorized replay on one slot.

    Each measurement runs the identical slot on a fresh
    :class:`SimulatedCluster`; the 'before' (event-loop) timings are
    attached to ``benchmark.extra_info`` so the run's JSON carries the
    pair.  Outcomes are asserted bit-identical, not just close.
    """
    inst, placement, routing, arrivals = _fig10_slot(n_users)
    serverless = ServerlessConfig(cold_start=0.5, keep_alive=60.0)

    def run(fast: bool):
        cluster = SimulatedCluster(
            inst,
            placement,
            routing,
            serverless=serverless,
            fast_replay=fast,
        )
        return cluster.run(arrivals=list(arrivals)), cluster

    rounds = 1 if n_users >= 100_000 else 3
    before = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        slow, event_cluster = run(False)
        before.append(time.perf_counter() - t0)
    assert event_cluster.events_processed > 0

    fast_out, fast_cluster = benchmark.pedantic(
        lambda: run(True), rounds=rounds, iterations=1
    )
    assert fast_cluster.events_processed == 0  # replay engaged, no events
    for a, b in zip(fast_out, slow):
        assert a.request == b.request
        assert a.finish == b.finish  # exact, not approx
        assert a.queueing == b.queueing
        assert a.cold_start == b.cold_start

    if benchmark.stats is None:  # --benchmark-disable (CI smoke)
        return
    after = statistics.median(benchmark.stats.stats.data)
    speedup = statistics.median(before) / after
    benchmark.extra_info["figure"] = "replay-extension"
    benchmark.extra_info["n_users"] = n_users
    benchmark.extra_info["arrival_rate"] = _REPLAY_RATE
    benchmark.extra_info["before_event_loop"] = before
    benchmark.extra_info["speedup_median"] = speedup
    print(
        f"\nreplay n={n_users}: event {statistics.median(before):.4f}s → "
        f"fast {after:.4f}s ({speedup:.2f}x, bit-identical)"
    )
