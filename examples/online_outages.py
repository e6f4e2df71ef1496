"""Online provisioning with warm-start repairs under node outages.

This example runs the online extension of the paper's one-shot
pipeline slot by slot:

1. 40 users stay at fixed home nodes; each 5-minute slot, the users
   active under a diurnal request-volume trace (scaled so its peak
   slot has all 40 active) draw fresh service chains with
   :func:`repro.workload.generate_requests`;
2. an :class:`repro.core.OnlineSoCL` solver repairs the previous
   slot's placement whenever the measured demand shift is small, and
   falls back to a full re-solve otherwise;
3. a node-outage schedule takes nodes down and brings them back
   mid-trace, so the pipeline re-homes users around failed nodes.

Prints one row per slot (active users, nodes down, repair or full
solve, objective, redeployed instances, solver time) and a sparkline of
the per-slot mean latency.

Run:  python examples/online_outages.py
"""

import numpy as np

from repro import ProblemConfig, ProblemInstance, eshop_application, stadium_topology
from repro.core import OnlineSoCL, SoCL
from repro.experiments import sparkline
from repro.runtime.failures import OutageSchedule, degrade_instance
from repro.workload import WorkloadSpec, generate_arrivals, generate_requests


def main() -> None:
    network = stadium_topology(12, seed=3)
    app = eshop_application()
    config = ProblemConfig(weight=0.5, budget=6000.0)
    n_users = 40
    n_slots = 10

    trace = generate_arrivals(duration_hours=n_slots / 12, interval_minutes=5.0, seed=0)
    volumes = trace.volumes[:n_slots]
    volumes = np.maximum(1, np.rint(volumes * n_users / volumes.max())).astype(int)
    print("active users per slot:", volumes.tolist())

    rng = np.random.default_rng(7)
    homes = rng.integers(0, network.n, size=n_users)
    outages = OutageSchedule(network.n, fail_prob=0.1, repair_prob=0.6, seed=5)
    online = OnlineSoCL(shift_threshold=1.1)
    scratch_runtime = 0.0

    print(f"\n{'slot':>4} {'active':>6} {'down':>4} {'mode':>12} "
          f"{'objective':>10} {'redeploy':>8} {'runtime':>8}")
    means = []
    for slot in range(n_slots):
        active = np.sort(
            rng.choice(n_users, size=volumes[slot], replace=False)
        )
        spec = WorkloadSpec(n_users=active.size, data_scale=5.0)
        requests = generate_requests(network, app, spec, rng=slot, homes=homes[active])
        instance = ProblemInstance(network, app, requests, config)
        down = outages.step()
        if down:
            instance = degrade_instance(instance, down)

        result = online.solve(instance)
        fresh = SoCL().solve(instance)
        scratch_runtime += fresh.runtime
        means.append(result.report.mean_latency)
        print(
            f"{slot:>4} {len(requests):>6} {len(down):>4} "
            f"{result.extra['mode']:>12} {result.report.objective:>10.1f} "
            f"{result.extra['redeployed_instances']:>8} {result.runtime:>7.3f}s"
        )

    print("\nper-slot mean latency:", sparkline(means, width=40))
    print(f"online solver time vs scratch: see modes above "
          f"(scratch total {scratch_runtime:.2f}s)")


if __name__ == "__main__":
    main()
