"""Parallel experiment harness: n_jobs > 1 must reproduce serial rows.

The process-pool paths in :func:`repro.experiments.harness.sweep`,
:func:`repro.experiments.sweeps.grid_sweep` and the fig-7/8/9 generators
promise row-for-row identical results to the serial loops (only the
``runtime`` field is timing-dependent).  These tests run both paths on
small scenarios and compare; CI runs this file as the parallel-sweep
smoke step.
"""

import os

from repro.baselines import RandomProvisioning
from repro.core import SoCL
from repro.experiments.figures import fig8_baselines, fig9_cluster
from repro.experiments.harness import sweep
from repro.experiments.scenarios import ScenarioParams, build_scenario
from repro.experiments.sweeps import grid_sweep
from repro.utils.parallel import effective_workers


def _strip_runtime(rows):
    # runtime and the per-stage t_<stage> telemetry columns are the only
    # timing-dependent fields; everything else must match exactly
    return [
        {
            k: v
            for k, v in r.items()
            if k != "runtime" and not k.startswith("t_")
        }
        for r in rows
    ]


def test_effective_workers_oversubscribe():
    # an explicit n_jobs may exceed the CPU count, so single-core
    # runners still exercise the pool path; 0/-1 mean every CPU
    cpus = os.cpu_count() or 1
    assert effective_workers(cpus + 3) == cpus + 3
    assert effective_workers(0) == cpus
    assert effective_workers(-1) == cpus


def test_sweep_parallel_matches_serial():
    instances = [
        ({"n_users": nu}, build_scenario(ScenarioParams(n_servers=6, n_users=nu, seed=0)))
        for nu in (6, 10)
    ]
    serial = sweep(instances)
    parallel = sweep(instances, n_jobs=2)
    assert _strip_runtime([r.as_dict() for r in serial]) == _strip_runtime(
        [r.as_dict() for r in parallel]
    )


def test_grid_sweep_parallel_matches_serial():
    factories = {"SoCL": lambda: SoCL(), "RP": lambda: RandomProvisioning(seed=0)}
    kwargs = dict(
        axes={"n_users": [6, 10]},
        seeds=[0, 1],
        solver_factories=factories,
        base=ScenarioParams(n_servers=6),
    )
    serial = grid_sweep(**kwargs)
    parallel = grid_sweep(**kwargs, n_jobs=2)
    assert _strip_runtime([c.as_dict() for c in serial]) == _strip_runtime(
        [c.as_dict() for c in parallel]
    )


def test_fig8_parallel_matches_serial():
    kwargs = dict(user_scales=(8, 12), n_servers=6, include_gcog=False)
    serial = fig8_baselines(**kwargs)
    parallel = fig8_baselines(**kwargs, n_jobs=2)
    assert _strip_runtime(serial) == _strip_runtime(parallel)


def test_fig9_parallel_matches_serial():
    kwargs = dict(user_counts=(6,), n_servers=5, n_slots=1)
    assert fig9_cluster(**kwargs) == fig9_cluster(**kwargs, n_jobs=2)
