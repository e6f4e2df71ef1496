"""Per-figure experiment generators (paper §I motivation + §V evaluation).

Every table and figure of the paper maps to one function here returning
structured rows; the pytest-benchmark targets under ``benchmarks/`` call
these at laptop scale and print the rows.  See DESIGN.md §4 for the
experiment index and EXPERIMENTS.md for paper-vs-measured values.

Scale parameters default to *reduced* sizes so the full suite completes
offline in minutes; pass the paper's sizes explicitly (see
``examples/paper_scale.py``) for full-scale runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines import (
    GreedyCombineOG,
    JointDeploymentRouting,
    OptimalSolver,
    RandomProvisioning,
)
from repro.core import OnlineSoCL, SoCL, SoCLConfig
from repro.experiments.harness import compare_algorithms
from repro.experiments.scenarios import ScenarioParams, build_scenario
from repro.microservices.eshop import eshop_application
from repro.model.instance import ProblemConfig
from repro.network.generators import stadium_topology
from repro.runtime.resilience import FaultConfig, FaultInjector, ResiliencePolicy
from repro.runtime.simulator import OnlineSimulator
from repro.utils.parallel import parallel_map
from repro.workload.alibaba import (
    cross_file_similarity,
    service_similarity_profile,
    synthesize_traces,
)
from repro.workload.trace import generate_arrivals
from repro.workload.users import WorkloadSpec


# ----------------------------------------------------------------------
# Fig. 2 — runtime of optimal solutions explodes with scale
# ----------------------------------------------------------------------
def fig2_opt_runtime(
    user_scales: Sequence[int] = (4, 6, 8, 10),
    server_scales: Sequence[int] = (5, 7),
    seed: int = 0,
    time_limit: Optional[float] = 120.0,
) -> list[dict]:
    """Exact-ILP runtime vs number of users, one series per server count.

    Paper Fig. 2 uses 10-30 servers and 40-60 users with Gurobi; HiGHS
    at reduced scale exhibits the same exponential growth (log-scale
    y-axis in the paper).
    """
    rows: list[dict] = []
    for n_servers in server_scales:
        for n_users in user_scales:
            inst = build_scenario(
                ScenarioParams(
                    n_servers=n_servers,
                    n_users=n_users,
                    seed=seed,
                    max_chain=4,
                )
            )
            res = OptimalSolver(time_limit=time_limit).solve(inst)
            rows.append(
                {
                    "n_servers": n_servers,
                    "n_users": n_users,
                    "runtime": res.runtime,
                    "objective": res.report.objective,
                    "status": res.extra["status"],
                    "n_variables": res.extra["n_variables"],
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig. 3 — similarity between services and between traces
# ----------------------------------------------------------------------
def fig3_similarity(
    n_services: int = 10,
    traces_per_service: int = 20,
    chain_length: int = 14,
    seed: int = 0,
) -> dict:
    """Trace-similarity analysis over synthesized Alibaba-style traces.

    Returns per-service similarity profiles (Fig. 3 (b): for >12-service
    chains the *max* similarity stays well below 1, paper reports ~0.65)
    and cross-file similarity statistics (Fig. 3 (a)).
    """
    traces = synthesize_traces(
        n_services=n_services,
        traces_per_service=traces_per_service,
        chain_length=chain_length,
        seed=seed,
    )
    profile = service_similarity_profile(traces)
    half = len(traces) // 2
    cross = cross_file_similarity(traces[:half], traces[half:])
    service_rows = [
        {"service": svc, **stats} for svc, stats in sorted(profile.items())
    ]
    return {
        "per_service": service_rows,
        "max_similarity": max(r["max"] for r in service_rows),
        "cross_file_mean": float(cross.mean()),
        "cross_file_std": float(cross.std()),
    }


# ----------------------------------------------------------------------
# Fig. 4 — temporal distribution of user requests
# ----------------------------------------------------------------------
def fig4_temporal(
    duration_hours: float = 10.0,
    interval_minutes: float = 5.0,
    seed: int = 0,
) -> dict:
    """10-hour request-volume trace with diurnal peaks and bursts."""
    trace = generate_arrivals(
        duration_hours=duration_hours,
        interval_minutes=interval_minutes,
        seed=seed,
    )
    return {
        "volumes": trace.volumes.tolist(),
        "hours": trace.hours.tolist(),
        "peak_to_mean": trace.peak_to_mean(),
        "coefficient_of_variation": trace.coefficient_of_variation(),
        "n_intervals": trace.n_intervals,
    }


# ----------------------------------------------------------------------
# Fig. 7 + §V.B.1 — SoCL vs exact optimizer (objective and runtime)
# ----------------------------------------------------------------------
def _fig7_cell(task: tuple) -> list[dict]:
    """One (sweep, scale) OPT-vs-SoCL pair; top-level for process pools."""
    sweep, scale, params, time_limit = task
    inst = build_scenario(params)
    opt = OptimalSolver(time_limit=time_limit).solve(inst)
    socl = SoCL().solve(inst)
    gap = (
        (socl.report.objective - opt.report.objective)
        / opt.report.objective
        * 100.0
        if opt.report.objective
        else 0.0
    )
    return [
        {
            "sweep": sweep,
            "scale": scale,
            "algorithm": name,
            "objective": res.report.objective,
            "runtime": res.runtime,
            "gap_pct": 0.0 if name == "OPT" else gap,
        }
        for name, res in (("OPT", opt), ("SoCL", socl))
    ]


def fig7_socl_vs_opt(
    user_scales: Sequence[int] = (4, 6, 8),
    node_scales: Sequence[int] = (5, 6, 8),
    base_users: int = 6,
    base_servers: int = 6,
    seed: int = 0,
    time_limit: Optional[float] = 120.0,
    n_jobs: int = 1,
) -> list[dict]:
    """Objective-gap and runtime comparison across user and node sweeps.

    One row per (sweep, scale, algorithm).  The paper reports gaps of
    ~3.3 % (30 users) and runtime improvements of 1-2 orders of
    magnitude (1 958.6 s vs 22.3 s at 50 users).  ``n_jobs > 1`` solves
    the (sweep, scale) cells on a process pool with serial row order.
    """
    tasks = [
        (
            "users",
            n_users,
            ScenarioParams(
                n_servers=base_servers, n_users=n_users, seed=seed, max_chain=4
            ),
            time_limit,
        )
        for n_users in user_scales
    ] + [
        (
            "nodes",
            n_servers,
            ScenarioParams(
                n_servers=n_servers, n_users=base_users, seed=seed, max_chain=4
            ),
            time_limit,
        )
        for n_servers in node_scales
    ]
    per_cell = parallel_map(_fig7_cell, tasks, n_jobs=n_jobs)
    return [row for rows in per_cell for row in rows]


# ----------------------------------------------------------------------
# Fig. 8 — baselines across user scales (10 servers)
# ----------------------------------------------------------------------
def _fig8_cell(task: tuple) -> list[dict]:
    """One user-scale cell of Fig. 8; top-level for process pools."""
    n_users, n_servers, budget, seed, include_gcog = task
    inst = build_scenario(
        ScenarioParams(
            n_servers=n_servers, n_users=n_users, budget=budget, seed=seed
        )
    )
    solvers = [RandomProvisioning(seed=seed), JointDeploymentRouting()]
    if include_gcog:
        solvers.append(GreedyCombineOG())
    solvers.append(SoCL())
    return [
        row.as_dict()
        for row in compare_algorithms(inst, solvers, params={"n_users": n_users})
    ]


def fig8_baselines(
    user_scales: Sequence[int] = (40, 80, 120, 160),
    n_servers: int = 10,
    budget: float = 6000.0,
    seed: int = 0,
    include_gcog: bool = True,
    n_jobs: int = 1,
) -> list[dict]:
    """Objective (cost & latency) of RP / JDR / GC-OG / SoCL per scale.

    Paper Fig. 8 uses 80/120/160/200 users: SoCL lowest everywhere, then
    GC-OG (but slow), then JDR, RP worst and degrading fastest.
    ``n_jobs > 1`` solves the user-scale cells on a process pool with
    serial row order.
    """
    tasks = [
        (n_users, n_servers, budget, seed, include_gcog)
        for n_users in user_scales
    ]
    per_cell = parallel_map(_fig8_cell, tasks, n_jobs=n_jobs)
    return [row for rows in per_cell for row in rows]


# ----------------------------------------------------------------------
# Fig. 9 — cluster testbed, 8 edge nodes, 50/70 users
# ----------------------------------------------------------------------
def _fig9_cell(task: tuple) -> dict:
    """One (solver, user count) cluster run; top-level for process pools.

    The network/application/simulator are rebuilt inside the worker from
    the seed (all deterministic), so only the solver object and scalars
    cross the pickle boundary.
    """
    (
        solver,
        n_users,
        n_servers,
        n_slots,
        budget,
        seed,
        data_scale,
        fast_replay,
        shards,
    ) = task
    network = stadium_topology(n_servers, seed=seed)
    app = eshop_application()
    sim = OnlineSimulator(
        network,
        app,
        ProblemConfig(weight=0.5, budget=budget),
        WorkloadSpec(n_users=n_users, data_scale=data_scale),
        seed=seed,
        fast_replay=fast_replay,
        shards=shards,
    )
    res = sim.run(solver, n_slots=n_slots)
    # overall() stays exact below the recorder's spill point and degrades
    # to histogram-backed quantiles (1% bound) at scale — never O(requests).
    lat_summary = res.recorder.overall()
    return {
        "algorithm": res.solver_name,
        "n_users": n_users,
        "objective": float(np.mean([s.objective for s in res.slots])),
        "cost": float(np.mean([s.cost for s in res.slots])),
        "mean_latency": res.mean_delay,
        "median_latency": lat_summary["median"],
        "max_latency": res.max_delay,
    }


def fig9_cluster(
    user_counts: Sequence[int] = (50, 70),
    n_servers: int = 8,
    n_slots: int = 4,
    budget: float = 6000.0,
    seed: int = 0,
    data_scale: float = 5.0,
    n_jobs: int = 1,
    fast_replay: bool = True,
    shards: int = 1,
) -> list[dict]:
    """RP / JDR / SoCL on the simulated cluster: cost, latency, objective.

    Reproduces Fig. 9 (b)'s structure: RP and JDR burn the full budget
    for low completion times; SoCL balances both.  Also reports the
    median per-request latency (the paper's 2.795/3.989/2.796 pattern —
    SoCL serves most requests as well as RP with fewer instances).
    ``n_jobs > 1`` runs the (solver, user count) cells on a process pool
    with serial row order.  ``shards > 1`` replays each slot through the
    region-sharded engine (bit-identical results; scaling study only).
    """
    tasks = [
        (solver, n_users, n_servers, n_slots, budget, seed, data_scale,
         fast_replay, shards)
        for n_users in user_counts
        for solver in (
            RandomProvisioning(seed=seed),
            JointDeploymentRouting(),
            SoCL(),
        )
    ]
    return parallel_map(_fig9_cell, tasks, n_jobs=n_jobs)


# ----------------------------------------------------------------------
# Resilience — completion rate and p99 vs fault intensity
# ----------------------------------------------------------------------
def _resilience_cell(task: tuple) -> dict:
    """One (solver, intensity, seed) resilient cluster run; top-level for
    process pools.

    Mirrors :func:`_fig9_cell`: the scenario rebuilds deterministically
    inside the worker, and the fault realization is slot-addressable
    from ``(seed, slot)``, so the cell is reproducible regardless of
    pool fan-out.
    """
    (
        solver,
        intensity,
        n_users,
        n_servers,
        n_slots,
        budget,
        seed,
        data_scale,
        policy,
        fast_replay,
    ) = task
    network = stadium_topology(n_servers, seed=seed)
    app = eshop_application()
    sim = OnlineSimulator(
        network,
        app,
        ProblemConfig(weight=0.5, budget=budget),
        WorkloadSpec(n_users=n_users, data_scale=data_scale),
        seed=seed,
        fast_replay=fast_replay,
    )
    faults = FaultInjector(FaultConfig.at_intensity(intensity), seed=seed)
    res = sim.run(solver, n_slots=n_slots, faults=faults, resilience=policy)
    return {
        "algorithm": res.solver_name,
        "intensity": intensity,
        "seed": seed,
        "completion_rate": res.completion_rate,
        "mean_latency": res.mean_delay,
        "p99_latency": res.p99_delay,
        "retries": sum(s.n_retries for s in res.slots),
        "hedges": sum(s.n_hedges for s in res.slots),
        "shed": sum(s.n_shed for s in res.slots),
        "timeouts": sum(s.n_timeouts for s in res.slots),
        "failed": sum(s.n_failed for s in res.slots),
    }


def resilience_sweep(
    intensities: Sequence[float] = (0.0, 0.1, 0.2, 0.4),
    n_users: int = 40,
    n_servers: int = 8,
    n_slots: int = 4,
    budget: float = 6000.0,
    seeds: Sequence[int] = (0,),
    data_scale: float = 5.0,
    policy: Optional[ResiliencePolicy] = ResiliencePolicy(),
    n_jobs: int = 1,
    fast_replay: bool = True,
) -> list[dict]:
    """Completion rate and p99 latency vs fault intensity, per algorithm.

    RP / JDR / SoCL-Online on the simulated cluster under request-level
    fault injection (:class:`repro.runtime.resilience.FaultInjector`),
    all governed by the same ``policy`` so the comparison isolates
    provisioning quality: SoCL-Online additionally routes the *next*
    slot around reported crashes (``note_failures``).  Pass
    ``policy=None`` to measure the unprotected runtime (crashes become
    hard failures).  One row per (intensity, seed, algorithm);
    ``n_jobs > 1`` runs cells on a process pool with serial row order.
    """
    tasks = [
        (
            solver,
            float(intensity),
            n_users,
            n_servers,
            n_slots,
            budget,
            int(seed),
            data_scale,
            policy,
            fast_replay,
        )
        for intensity in intensities
        for seed in seeds
        for solver in (
            RandomProvisioning(seed=int(seed)),
            JointDeploymentRouting(),
            OnlineSoCL(),
        )
    ]
    return parallel_map(_resilience_cell, tasks, n_jobs=n_jobs)


# ----------------------------------------------------------------------
# Autoscaling — static vs assisted vs pure-reactive provisioning
# ----------------------------------------------------------------------
def _autoscale_cell(task: tuple) -> dict:
    """One (mode, traffic) autoscaling run; top-level for process pools.

    The stateful :class:`~repro.runtime.autoscale.Autoscaler` is built
    *inside* the worker (its signal EMAs and cooldown clocks must start
    fresh per cell), so only the mode/traffic strings and scalars cross
    the pickle boundary.
    """
    from repro.runtime.autoscale import AutoscaleConfig, Autoscaler, StaticProvisioner

    (
        mode,
        traffic,
        n_users,
        n_servers,
        n_slots,
        budget,
        seed,
        data_scale,
        fast_replay,
    ) = task
    network = stadium_topology(n_servers, seed=seed)
    app = eshop_application()

    # Slot request volumes from an Alibaba-style arrival trace: diurnal
    # shape always, plus Poisson bursts for the "bursty" profile.  The
    # trace normalizes to the user population so peak slots saturate it.
    burst_rate = 6.0 if traffic == "bursty" else 0.0
    trace = generate_arrivals(
        duration_hours=n_slots * 5.0 / 60.0,
        interval_minutes=5.0,
        seed=seed,
        burst_rate_per_hour=burst_rate,
        burst_magnitude=3.0,
    )
    peak = float(trace.volumes.max()) or 1.0
    volumes = np.maximum(1, np.ceil(trace.volumes / peak * n_users)).astype(int)

    if mode == "reactive":
        solver = StaticProvisioner()
        autoscaler = Autoscaler(AutoscaleConfig(), reactive=True)
    elif mode == "socl+as":
        solver = SoCL()
        autoscaler = Autoscaler(AutoscaleConfig())
    else:  # plain SoCL, no feedback loop
        solver = SoCL()
        autoscaler = None
    sim = OnlineSimulator(
        network,
        app,
        ProblemConfig(weight=0.5, budget=budget),
        WorkloadSpec(n_users=n_users, data_scale=data_scale),
        seed=seed,
        fast_replay=fast_replay,
        autoscaler=autoscaler,
    )
    res = sim.run(solver, n_slots=n_slots, volumes=volumes[:n_slots].tolist())
    stats = autoscaler.stats if autoscaler is not None else None
    return {
        "mode": mode,
        "traffic": traffic,
        "algorithm": res.solver_name
        + (f"+{autoscaler.name}" if autoscaler is not None else ""),
        "completion_rate": res.completion_rate,
        "mean_latency": res.mean_delay,
        "p99_latency": res.p99_delay,
        "cold_starts": sum(s.cold_starts for s in res.slots),
        "instance_seconds": res.instance_seconds(),
        "scale_ups": stats.scale_ups if stats else 0,
        "scale_downs": stats.scale_downs if stats else 0,
        "prewarms": stats.prewarms if stats else 0,
        "evictions": stats.evictions if stats else 0,
    }


def autoscale_sweep(
    modes: Sequence[str] = ("socl", "socl+as", "reactive"),
    traffics: Sequence[str] = ("diurnal", "bursty"),
    n_users: int = 40,
    n_servers: int = 8,
    n_slots: int = 8,
    budget: float = 6000.0,
    seed: int = 0,
    data_scale: float = 5.0,
    n_jobs: int = 1,
    fast_replay: bool = True,
) -> list[dict]:
    """Static vs autoscaled provisioning under diurnal and bursty load.

    Three provisioning modes on the simulated cluster (docs/AUTOSCALING.md):
    ``socl`` — the paper's per-slot static pre-provisioning, untouched;
    ``socl+as`` — SoCL assisted by the reactive feedback loop
    (:class:`~repro.runtime.autoscale.Autoscaler`), which trims
    replicas and sizes the warm pool between slots; ``reactive`` — a
    pure-reactive platform (:class:`~repro.runtime.autoscale.StaticProvisioner`
    bootstrap, all subsequent capacity changes feedback-driven).  Each
    mode runs under the two `workload/alibaba`-style traffic profiles
    and reports completion rate, p99 latency, and cost
    (instance-seconds).  One row per (traffic, mode); ``n_jobs > 1``
    runs cells on a process pool with serial row order.
    """
    tasks = [
        (
            mode,
            traffic,
            n_users,
            n_servers,
            n_slots,
            budget,
            seed,
            data_scale,
            fast_replay,
        )
        for traffic in traffics
        for mode in modes
    ]
    return parallel_map(_autoscale_cell, tasks, n_jobs=n_jobs)


# ----------------------------------------------------------------------
# Fig. 10 — 4-hour delay trace on 16 edge nodes with mobility
# ----------------------------------------------------------------------
def fig10_trace(
    n_servers: int = 16,
    n_users: int = 50,
    n_slots: int = 48,
    budget: float = 6000.0,
    seed: int = 0,
    data_scale: float = 5.0,
    fast_replay: bool = True,
    shards: int = 1,
) -> dict:
    """Average delay trace for RP / JDR / SoCL with mobile users.

    Paper: 4 hours of 5-minute slots (48 slots), 50 users moving among
    16 edge nodes.  SoCL achieves the lowest average delay and the
    lowest maximum delay (stability).  ``shards > 1`` switches slot
    replay to the region-sharded engine (bit-identical results).
    """
    network = stadium_topology(n_servers, seed=seed)
    app = eshop_application()
    series: dict[str, dict] = {}
    for solver in (RandomProvisioning(seed=seed), JointDeploymentRouting(), SoCL()):
        sim = OnlineSimulator(
            network,
            app,
            ProblemConfig(weight=0.5, budget=budget),
            WorkloadSpec(n_users=n_users, data_scale=data_scale),
            seed=seed,
            fast_replay=fast_replay,
            shards=shards,
        )
        res = sim.run(solver, n_slots=n_slots)
        series[res.solver_name] = {
            "slot_means": res.slot_means().tolist(),
            "mean_delay": res.mean_delay,
            "max_delay": res.max_delay,
        }
    return series
