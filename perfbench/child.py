"""One measured pass of a workload, in a fresh process.

Run by ``run.py``, one child at a time::

    python3 perfbench/child.py --mode run --workload fig10-sharded --seed 1 \
        --size full --t0 <time.monotonic() at spawn>

``--mode setup`` stops once the simulator is ready (set-up timing only);
``--mode run`` also runs ``OnlineSimulator.run`` with tracing off;
``--mode trace`` runs it under a :class:`repro.obs.Tracer` with the layer
wrappers of :mod:`layers` installed.  The child prints one JSON object:
timings, the modelled results, a SHA-256 digest of them and the list of
correctness violations it found.

The run's wall time is also reported cut into segments, twice: at the
start and end of each slot's solve (``slot_segments_s``), and at those
points plus the start of every garbage collection (``segments_s``).  A
fresh process running the same program on the same inputs allocates the
same objects in the same order (``PYTHONHASHSEED`` is fixed), so its
collections start at the same points of the program on every pass.  In
Python-heavy code that is a cut every few tens of milliseconds, placed by
the work the program does rather than by the functions it calls.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import workloads  # noqa: E402


class CheckedSolver:
    """Solver proxy that keeps each slot's feasibility report.

    It also notes the host time at which each solve starts and ends: the
    simulator solves once per slot, so these marks cut every pass of one
    workload and seed at the same points of the program.  Anything else
    (``name``, ``note_failures``) is forwarded to the wrapped solver, so
    the simulator drives it exactly as the original.
    """

    def __init__(self, inner):
        self.inner = inner
        self.feasibility = []
        self.marks: list[float] = []

    def solve(self, instance):
        self.marks.append(time.perf_counter())
        result = self.inner.solve(instance)
        self.marks.append(time.perf_counter())
        self.feasibility.append(result.feasibility)
        return result

    def __getattr__(self, name):
        return getattr(self.inner, name)


def build(wl: workloads.Workload, seed: int):
    """Everything ``OnlineSimulator.run`` needs, ready to run."""
    from repro.core.online import OnlineSoCL
    from repro.core.socl import SoCL
    from repro.microservices import eshop_application
    from repro.model import ProblemConfig
    from repro.network import stadium_topology
    from repro.runtime.resilience import (
        FaultConfig,
        FaultInjector,
        ResiliencePolicy,
    )
    from repro.runtime.simulator import OnlineSimulator
    from repro.workload import WorkloadSpec

    net = stadium_topology(wl.servers, seed=0)
    net.paths  # path tables are lazy; build them as part of set-up
    sim = OnlineSimulator(
        net,
        eshop_application(),
        ProblemConfig(weight=0.5, budget=wl.budget),
        WorkloadSpec(n_users=wl.users, data_scale=5.0),
        seed=seed,
        shards=wl.shards,
        # exact p99: the default recorder spills to a bucketed histogram,
        # whose p99 reads the same bucket on every seed of a saturated run
        exact_latencies=True,
    )
    solver = CheckedSolver(OnlineSoCL() if wl.solver == "online" else SoCL())
    kwargs = {}
    if wl.fault_intensity > 0.0:
        kwargs = {
            "faults": FaultInjector(
                FaultConfig.at_intensity(wl.fault_intensity), seed=seed
            ),
            "resilience": ResiliencePolicy(),
        }
    return sim, solver, kwargs


def modelled_totals(result) -> dict:
    """Trace-level totals of the modelled results (host time excluded)."""
    slots = result.slots
    return {
        "requests": sum(r.n_requests for r in slots),
        "completed": int(result.recorder.total_count),
        "cold_starts": sum(r.cold_starts for r in slots),
        "retries": sum(r.n_retries for r in slots),
        "hedges": sum(r.n_hedges for r in slots),
        "timeouts": sum(r.n_timeouts for r in slots),
        "failed": sum(r.n_failed for r in slots),
        "shed": sum(r.n_shed for r in slots),
    }


def digest(result, feasibility, totals: dict) -> str:
    """SHA-256 over the modelled slot records, recorder state and totals."""
    h = hashlib.sha256()
    for r in result.slots:
        h.update(repr((
            r.slot, r.n_requests, r.objective, r.cost, r.mean_latency,
            r.max_latency, r.cold_starts, r.churn, r.n_down_nodes,
            r.n_retries, r.n_hedges, r.n_shed, r.n_timeouts, r.n_failed,
            r.n_provisioned, r.n_warm,
        )).encode())
    rec = result.recorder
    h.update(rec.slot_counts().tobytes())
    h.update(rec.slot_means().tobytes())
    h.update(rec.slot_maxima().tobytes())
    h.update(repr(sorted(rec.overall().items())).encode())
    h.update(repr([
        (f.budget_ok, f.storage_ok, f.assignment_ok, f.n_cloud_requests)
        for f in feasibility
    ]).encode())
    h.update(repr(sorted(totals.items())).encode())
    return h.hexdigest()


def violations(result, feasibility, budget: float) -> list[str]:
    """Every broken invariant of one run (empty when all hold)."""
    out = []
    counts = result.recorder.slot_counts()
    if len(result.slots) != len(counts) or len(feasibility) != len(counts):
        out.append(
            f"{len(result.slots)} slot records, {len(counts)} recorded "
            f"slots, {len(feasibility)} solves"
        )
    for r, done, feas in zip(result.slots, counts, feasibility):
        settled = int(done) + r.n_timeouts + r.n_failed + r.n_shed
        if settled != r.n_requests:
            out.append(
                f"slot {r.slot}: completed {done} + timed out {r.n_timeouts}"
                f" + failed {r.n_failed} + shed {r.n_shed} != submitted "
                f"{r.n_requests}"
            )
        if not (feas.budget_ok and feas.storage_ok):
            out.append(
                f"slot {r.slot}: placement breaks the budget ({budget}) or "
                f"a storage limit (budget_ok={feas.budget_ok}, "
                f"storage_ok={feas.storage_ok})"
            )
    hist = result.recorder.hist
    if hist.count and not (
        math.isfinite(hist.total) and math.isfinite(hist.max) and hist.min >= 0
    ):
        out.append(
            f"latencies not finite and non-negative: min={hist.min} "
            f"max={hist.max} total={hist.total}"
        )
    for name, series in (
        ("slot mean", result.recorder.slot_means()),
        ("slot max", result.recorder.slot_maxima()),
    ):
        if not all(math.isfinite(v) and v >= 0 for v in series):
            out.append(f"{name} latency not finite and non-negative")
    return out


def counter_mismatches(counters: dict, totals: dict) -> list[str]:
    """Program counters that disagree with the slot records."""
    pairs = {
        "runtime.requests_total": totals["requests"],
        "runtime.requests_completed": totals["completed"],
    }
    for k in ("cold_starts", "retries", "hedges", "timeouts", "failed", "shed"):
        pairs[f"runtime.{k}"] = totals[k]
    return [
        f"counter {name}={counters.get(name, 0)} but slot records say {want}"
        for name, want in pairs.items()
        if counters.get(name, 0) != want
    ]


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    args = parser.parse_args(argv)
    wl = workloads.get(args.workload, args.size)

    sim, solver, kwargs = build(wl, args.seed)
    out: dict = {"mode": args.mode, "setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    from repro.obs import NULL_TRACER, Tracer, use_tracer

    tracer, probe = NULL_TRACER, None
    if args.mode == "trace":
        tracer = Tracer("perfbench")
        probe = layers.LayerProbe(tracer)
        probe.install()

    collections: list[float] = []

    def on_gc(phase, info):
        if phase == "start":
            collections.append(time.perf_counter())

    cpu0 = _cpu_s()
    gc.callbacks.append(on_gc)
    t0 = time.perf_counter()
    with use_tracer(tracer):
        result = sim.run(solver, n_slots=wl.slots, **kwargs)
    t1 = time.perf_counter()
    gc.callbacks.remove(on_gc)
    wall = t1 - t0
    cpu = _cpu_s() - cpu0
    slot_cuts = [t0, *solver.marks, t1]
    fine_cuts = sorted(slot_cuts + collections)

    totals = modelled_totals(result)
    overall = result.recorder.overall()
    slot_objectives = [r.objective for r in result.slots]
    problems = violations(result, solver.feasibility, wl.budget)
    out.update(
        run_s=wall,
        slot_segments_s=[b - a for a, b in zip(slot_cuts, slot_cuts[1:])],
        segments_s=[b - a for a, b in zip(fine_cuts, fine_cuts[1:])],
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        requests=totals["requests"],
        errors=totals["requests"] - totals["completed"],
        totals=totals,
        mean_delay_s=float(overall["mean"]),
        p99_delay_s=float(overall["p99"]),
        objective=sum(slot_objectives) / len(slot_objectives),
        cold_starts=totals["cold_starts"],
        completion_rate=result.completion_rate,
        digest=digest(result, solver.feasibility, totals),
    )
    if probe is not None:
        counters = dict(tracer.counters)
        problems += counter_mismatches(counters, totals)
        out["ledger"] = layers.ledger(probe, counters, wall)
        missing = [
            layer for layer in wl.expect if probe.calls[layer] == 0
        ]
        if missing:
            problems.append(
                f"layers expected on {wl.name} recorded no calls: "
                + ", ".join(missing)
            )
    out["violations"] = problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
