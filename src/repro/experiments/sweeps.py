"""Multi-seed, multi-parameter sweep utilities.

The paper reports single-run numbers; credible reproduction wants
*distributions*.  :func:`grid_sweep` runs a solver factory over the
cartesian product of scenario-parameter axes × seeds and
:func:`aggregate` reduces repeated cells to mean ± std (plus min/max),
giving the error-bar data behind the figure reproductions.

Example
-------
>>> from repro.experiments.sweeps import grid_sweep, aggregate
>>> rows = grid_sweep(
...     axes={"n_users": [10, 20]},
...     seeds=[0, 1],
...     solver_factories={"SoCL": lambda: __import__("repro").SoCL()},
...     base=ScenarioParams(n_servers=6),
... )                                              # doctest: +SKIP
>>> summary = aggregate(rows, group_by=("n_users", "algorithm"))  # doctest: +SKIP
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.experiments.scenarios import ScenarioParams, build_scenario
from repro.utils.parallel import parallel_map


@dataclass(frozen=True)
class SweepCell:
    """One (parameters, seed, algorithm) observation."""

    params: dict
    seed: int
    algorithm: str
    objective: float
    cost: float
    latency_sum: float
    runtime: float
    feasible: bool

    def as_dict(self) -> dict:
        return {
            **self.params,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "objective": self.objective,
            "cost": self.cost,
            "latency_sum": self.latency_sum,
            "runtime": self.runtime,
            "feasible": self.feasible,
        }


def _solve_grid_cell(task: tuple) -> list[SweepCell]:
    """Solve one (overrides, seed) grid cell for every algorithm.

    Top-level so it pickles into :func:`parallel_map` process workers;
    the scenario is rebuilt inside the worker (``ScenarioParams`` is a
    plain picklable dataclass) so the parent never ships instances, and
    the single build is shared by all algorithms of the cell exactly
    like the serial loop did.
    """
    overrides, seed, solvers, base = task
    instance = build_scenario(base.with_(seed=seed, **overrides))
    cells: list[SweepCell] = []
    for algo_name, solver in solvers:
        result = solver.solve(instance)
        cells.append(
            SweepCell(
                params=dict(overrides),
                seed=seed,
                algorithm=algo_name,
                objective=result.report.objective,
                cost=result.report.cost,
                latency_sum=result.report.latency_sum,
                runtime=result.runtime,
                feasible=result.feasibility.feasible,
            )
        )
    return cells


def grid_sweep(
    axes: Mapping[str, Sequence],
    seeds: Sequence[int],
    solver_factories: Mapping[str, Callable[[], object]],
    base: ScenarioParams = ScenarioParams(),
    n_jobs: int = 1,
) -> list[SweepCell]:
    """Run every solver over the cartesian product of ``axes`` × ``seeds``.

    ``axes`` maps :class:`ScenarioParams` field names to value lists;
    unknown fields raise immediately.  A fresh solver is created per
    cell so stateful solvers cannot leak across cells.  ``n_jobs > 1``
    solves (params, seed) cells on a process pool — solvers are
    instantiated in the parent (factories may be lambdas, which don't
    pickle) — and the flattened cell order is identical to the serial
    nested loop.
    """
    if not axes:
        raise ValueError("axes must contain at least one parameter")
    if not seeds:
        raise ValueError("seeds must be non-empty")
    valid_fields = set(ScenarioParams.__dataclass_fields__)
    unknown = set(axes) - valid_fields
    if unknown:
        raise KeyError(
            f"unknown scenario parameters {sorted(unknown)}; "
            f"valid: {sorted(valid_fields)}"
        )

    names = list(axes)
    tasks = [
        (
            dict(zip(names, combo)),
            int(seed),
            [(name, factory()) for name, factory in solver_factories.items()],
            base,
        )
        for combo in itertools.product(*(axes[name] for name in names))
        for seed in seeds
    ]
    per_cell = parallel_map(_solve_grid_cell, tasks, n_jobs=n_jobs)
    return [cell for cells in per_cell for cell in cells]


def aggregate(
    cells: Iterable,
    group_by: Sequence[str] = ("algorithm",),
    metrics: Sequence[str] = ("objective", "runtime"),
) -> list[dict]:
    """Reduce sweep cells to per-group mean/std/min/max rows.

    ``cells`` may be :class:`SweepCell` objects or plain mappings (any
    dict row with the named fields — e.g. the multi-seed rows of the
    resilience experiment).  ``group_by`` names either sweep-axis
    parameters or the literal ``"algorithm"``/``"seed"`` fields;
    ``metrics`` are numeric cell fields.  Output rows carry
    ``<metric>_mean`` etc. and ``n`` (cell count), sorted by the group
    key for deterministic tables.  Rows without a ``feasible`` field
    count as feasible.
    """
    groups: dict[tuple, list[dict]] = {}
    for cell in cells:
        record = cell.as_dict() if hasattr(cell, "as_dict") else dict(cell)
        try:
            key = tuple(record[g] for g in group_by)
        except KeyError as exc:
            raise KeyError(f"unknown group field {exc.args[0]!r}") from exc
        groups.setdefault(key, []).append(record)

    rows: list[dict] = []
    for key in sorted(groups, key=lambda k: tuple(str(v) for v in k)):
        members = groups[key]
        row: dict = dict(zip(group_by, key))
        row["n"] = len(members)
        for metric in metrics:
            try:
                values = np.array([m[metric] for m in members], dtype=float)
            except KeyError as exc:
                raise KeyError(f"unknown metric field {exc.args[0]!r}") from exc
            row[f"{metric}_mean"] = float(values.mean())
            row[f"{metric}_std"] = float(values.std())
            row[f"{metric}_min"] = float(values.min())
            row[f"{metric}_max"] = float(values.max())
        row["all_feasible"] = all(m.get("feasible", True) for m in members)
        rows.append(row)
    return rows


def win_rate(
    cells: Iterable[SweepCell],
    challenger: str,
    incumbents: Optional[Sequence[str]] = None,
) -> float:
    """Fraction of (params, seed) cells where ``challenger`` has the
    lowest objective among all algorithms (ties count as wins)."""
    by_cell: dict[tuple, dict[str, float]] = {}
    for cell in cells:
        key = (tuple(sorted(cell.params.items())), cell.seed)
        by_cell.setdefault(key, {})[cell.algorithm] = cell.objective
    if not by_cell:
        raise ValueError("no sweep cells given")
    wins = 0
    total = 0
    for algos in by_cell.values():
        if challenger not in algos:
            continue
        rivals = (
            {k: v for k, v in algos.items() if k != challenger}
            if incumbents is None
            else {k: algos[k] for k in incumbents if k in algos}
        )
        if not rivals:
            continue
        total += 1
        if algos[challenger] <= min(rivals.values()) + 1e-9:
            wins += 1
    if total == 0:
        raise ValueError(f"challenger {challenger!r} never appears with rivals")
    return wins / total
