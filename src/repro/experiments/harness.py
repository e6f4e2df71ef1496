"""Algorithm-comparison harness: run solvers on scenarios, tabulate rows.

:func:`sweep` fans (solver, instance) cells out over a process pool when
``n_jobs > 1``: solvers are instantiated in the parent (factories may be
lambdas, which don't pickle — solver objects do) and shipped to workers
along with the instance, and results come back in the exact order the
serial path would produce them.

Telemetry: rows carry the solver's per-stage wall-clock times
(``t_partition`` … columns, empty for baselines without stages); cell
tracing under an enabled ambient tracer is :func:`parallel_map`'s job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.baselines import (
    GreedyCombineOG,
    JointDeploymentRouting,
    RandomProvisioning,
)
from repro.core import SoCL, SoCLConfig
from repro.model.instance import ProblemInstance
from repro.utils.parallel import parallel_map

#: SoCL pipeline stages, in execution order (the ``t_<stage>`` columns).
STAGE_NAMES = ("partition", "preprovision", "combination", "routing")


@dataclass(frozen=True)
class AlgorithmRow:
    """One (algorithm, scenario) result row."""

    algorithm: str
    objective: float
    cost: float
    latency_sum: float
    mean_latency: float
    max_latency: float
    runtime: float
    feasible: bool
    params: dict
    stage_times: Mapping[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "algorithm": self.algorithm,
            "objective": self.objective,
            "cost": self.cost,
            "latency_sum": self.latency_sum,
            "mean_latency": self.mean_latency,
            "max_latency": self.max_latency,
            "runtime": self.runtime,
            "feasible": self.feasible,
            **self.params,
        }
        for stage, seconds in self.stage_times.items():
            out[f"t_{stage}"] = seconds
        return out


def default_solvers(seed: int = 0, include_gcog: bool = True) -> list:
    """The paper's baseline lineup: RP, JDR, GC-OG, SoCL."""
    solvers = [RandomProvisioning(seed=seed), JointDeploymentRouting()]
    if include_gcog:
        solvers.append(GreedyCombineOG())
    solvers.append(SoCL(SoCLConfig()))
    return solvers


def _row_from_result(solver, result, params: dict) -> AlgorithmRow:
    """Tabulate one solver result into an :class:`AlgorithmRow`."""
    return AlgorithmRow(
        algorithm=getattr(solver, "name", type(solver).__name__),
        objective=result.report.objective,
        cost=result.report.cost,
        latency_sum=result.report.latency_sum,
        mean_latency=result.report.mean_latency,
        max_latency=result.report.max_latency,
        runtime=result.runtime,
        feasible=result.feasibility.feasible,
        params=dict(params),
        stage_times=dict(getattr(result, "stage_times", None) or {}),
    )


def _solve_cell(cell: tuple) -> AlgorithmRow:
    """Solve one (solver, instance, params) sweep cell.

    Top-level so it pickles into :func:`parallel_map` process workers.
    """
    solver, instance, params = cell
    return _row_from_result(solver, solver.solve(instance), params)


def compare_algorithms(
    instance: ProblemInstance,
    solvers: Optional[Sequence] = None,
    params: Optional[dict] = None,
) -> list[AlgorithmRow]:
    """Run every solver on ``instance``; returns one row per solver."""
    if solvers is None:
        solvers = default_solvers()
    params = params or {}
    return [
        _row_from_result(solver, solver.solve(instance), params)
        for solver in solvers
    ]


def sweep(
    instances: Iterable[tuple[dict, ProblemInstance]],
    solvers_factory: Callable[[], Sequence] = default_solvers,
    n_jobs: int = 1,
) -> list[AlgorithmRow]:
    """Run the solver lineup over a parameterized instance sweep.

    ``instances`` yields ``(params, instance)`` pairs; a fresh solver
    lineup is created per instance so stateful solvers don't leak.
    With ``n_jobs > 1`` the (solver, instance) cells are solved on a
    process pool; row order matches the serial nested loop regardless
    (only the ``runtime`` field is timing-dependent).
    """
    cells = [
        (solver, instance, params)
        for params, instance in instances
        for solver in solvers_factory()
    ]
    return parallel_map(_solve_cell, cells, n_jobs=n_jobs)
