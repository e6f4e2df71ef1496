"""Online provisioning under user mobility — the Fig. 10 experiment.

50 users hop among neighbouring edge nodes of a 16-node network and issue
requests every 5-minute slot; each algorithm re-provisions per slot and the
discrete-event cluster replays the traffic, with the warm-instance pool
carried across slots so placement churn surfaces as cold starts.

Prints the per-slot average-delay series and the trace-level summary
(paper: SoCL lowest average delay ≈ 8.5 ms per timestamp and lowest
maximum delay).

Run:  python examples/online_mobility_trace.py
"""

from repro import (
    JointDeploymentRouting,
    ProblemConfig,
    RandomProvisioning,
    SoCL,
    WorkloadSpec,
    eshop_application,
    stadium_topology,
)
from repro.runtime import OnlineSimulator


def main() -> None:
    network = stadium_topology(16, seed=11)
    app = eshop_application()
    config = ProblemConfig(weight=0.5, budget=6000.0)
    workload = WorkloadSpec(n_users=50, data_scale=5.0)
    n_slots = 24  # two hours of 5-minute slots; paper uses 48

    results = {}
    for solver in (RandomProvisioning(seed=2), JointDeploymentRouting(), SoCL()):
        sim = OnlineSimulator(network, app, config, workload, seed=42)
        results[solver.name] = sim.run(solver, n_slots=n_slots)

    print(f"=== per-slot average delay over {n_slots} slots (seconds) ===")
    header = "slot " + "".join(f"{name:>10s}" for name in results)
    print(header)
    for t in range(n_slots):
        row = f"{t:4d} " + "".join(
            f"{res.slot_means()[t]:10.3f}" for res in results.values()
        )
        print(row)

    print("\n=== trace summary ===")
    for name, res in results.items():
        cold = sum(s.cold_starts for s in res.slots)
        churn = sum(s.churn for s in res.slots) / len(res.slots)
        print(
            f"{name:8s} mean_delay={res.mean_delay:7.3f}s "
            f"max_delay={res.max_delay:8.3f}s cold_starts={cold:4d} "
            f"avg_user_churn={churn:.2%}"
        )


if __name__ == "__main__":
    main()
