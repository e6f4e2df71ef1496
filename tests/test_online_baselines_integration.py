"""Integration: the extension baselines in the online simulator.

All stateful and stateless solvers must run through the time-slotted
driver (with and without failures) and produce finite delay traces —
the contract the Fig. 9/10 machinery depends on.
"""

import numpy as np
import pytest

from repro.baselines import (
    JointDeploymentRouting,
    KubeScheduler,
    RandomProvisioning,
    ROIAutoscaler,
)
from repro.core import OnlineSoCL, SoCL
from repro.microservices import eshop_application
from repro.model import ProblemConfig
from repro.network import stadium_topology
from repro.runtime import OnlineSimulator, OutageSchedule
from repro.workload import WorkloadSpec


ALL_SOLVERS = [
    lambda: RandomProvisioning(seed=0),
    lambda: JointDeploymentRouting(),
    lambda: KubeScheduler(),
    lambda: ROIAutoscaler(),
    lambda: SoCL(),
    lambda: OnlineSoCL(shift_threshold=1.2),
]


@pytest.fixture(scope="module")
def setting():
    return (
        stadium_topology(10, seed=3),
        eshop_application(),
        ProblemConfig(weight=0.5, budget=6000.0),
        WorkloadSpec(n_users=12, data_scale=5.0),
    )


@pytest.mark.parametrize("factory", ALL_SOLVERS)
class TestAllSolversOnline:
    def test_trace_completes(self, setting, factory):
        net, app, cfg, spec = setting
        sim = OnlineSimulator(net, app, cfg, spec, seed=42)
        res = sim.run(factory(), n_slots=2)
        assert len(res.slots) == 2
        assert np.isfinite(res.mean_delay)
        assert all(s.n_requests == 12 for s in res.slots)

    def test_trace_with_outages(self, setting, factory):
        net, app, cfg, spec = setting
        sim = OnlineSimulator(net, app, cfg, spec, seed=42)
        sched = OutageSchedule(net.n, fail_prob=0.3, repair_prob=0.5, seed=1)
        res = sim.run(factory(), n_slots=2, outages=sched)
        assert np.isfinite(res.mean_delay)


class TestSoCLStillWins:
    def test_socl_best_objective(self, setting):
        net, app, cfg, spec = setting
        objectives = {}
        delays = {}
        for factory in ALL_SOLVERS:
            solver = factory()
            sim = OnlineSimulator(net, app, cfg, spec, seed=42)
            res = sim.run(solver, n_slots=3)
            objectives[res.solver_name] = float(
                np.mean([s.objective for s in res.slots])
            )
            delays[res.solver_name] = res.mean_delay
        # the paper's metric is the objective: SoCL (or its warm-start
        # variant) leads the field
        best = min(objectives, key=objectives.get)
        assert best in ("SoCL", "SoCL-Online")
        # and its delay is no worse than the best of the paper's
        # baselines (the local ROI controller, an extension, can shade
        # it at tiny scales)
        assert delays["SoCL"] <= min(delays[b] for b in ("RP", "JDR", "K8s"))
