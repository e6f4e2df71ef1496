"""Online provisioning with user behavior, warm starts and node failures.

This example exercises the repository's extensions beyond the paper's
one-shot pipeline (its stated future work: "incorporate user behavior
modeling and preference integration"):

1. a :class:`repro.workload.BehaviorModel` gives each of 40 users stable
   entry preferences and session depth, so demand is correlated across
   slots;
2. an :class:`repro.core.OnlineSoCL` solver warm-starts from the
   previous slot's placement whenever the measured demand shift is
   small, falling back to full re-solves on regime changes;
3. a node-failure schedule stresses the pipeline mid-trace.

Run:  python examples/online_behavior_forecast.py
"""

import numpy as np

from repro import ProblemConfig, ProblemInstance, eshop_application, stadium_topology
from repro.core import OnlineSoCL, SoCL
from repro.experiments import sparkline
from repro.runtime.failures import OutageSchedule, degrade_instance
from repro.workload import (
    BehaviorModel,
    behavioral_requests,
    generate_arrivals,
)


def main() -> None:
    network = stadium_topology(12, seed=3)
    app = eshop_application()
    config = ProblemConfig(weight=0.5, budget=6000.0)
    n_users = 40
    n_slots = 10

    model = BehaviorModel(app, n_users=n_users, seed=0)
    print("entrypoint popularity:", np.round(model.entry_distribution(), 3))

    trace = generate_arrivals(duration_hours=n_slots / 12, interval_minutes=5.0, seed=0)
    volumes = np.minimum(trace.volumes[:n_slots], n_users)
    print("request volume per slot:", volumes.tolist())

    rng = np.random.default_rng(7)
    homes = rng.integers(0, network.n, size=n_users)
    outages = OutageSchedule(network.n, fail_prob=0.1, repair_prob=0.6, seed=5)
    online = OnlineSoCL(shift_threshold=1.1)
    scratch_runtime = 0.0

    print(f"\n{'slot':>4} {'active':>6} {'down':>4} {'mode':>12} "
          f"{'objective':>10} {'redeploy':>8} {'runtime':>8}")
    means = []
    for slot in range(n_slots):
        active = rng.choice(n_users, size=max(1, int(volumes[slot])), replace=False)
        requests = behavioral_requests(
            network, app, model, rng=slot, homes=homes, data_scale=5.0
        )
        requests = [r for r in requests if r.index in set(active)]
        # reindex for the instance
        from repro.workload.users import reindex_requests

        instance = ProblemInstance(network, app, reindex_requests(requests), config)
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
