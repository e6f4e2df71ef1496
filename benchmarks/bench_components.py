"""Component microbenchmarks: the hot paths of the SoCL pipeline.

Classic pytest-benchmark throughput measurements (many rounds) for the
pieces that dominate SoCL's runtime, so performance regressions in the
vectorized kernels are caught:

* all-pairs path table construction (lexicographic Floyd–Warshall);
* Alg. 1 partitioning; Alg. 2 pre-provisioning — plus their in-tree
  ``*_reference`` loop kernels, so one run yields the paired
  before/after numbers recorded in ``BENCH_pipeline.json``;
* the ζ latency-loss sweep (Alg. 4);
* Alg. 3-4 end to end, whose serial descent scores each candidate merge
  through the ``BatchRouter`` base;
* whole-workload latency evaluation (Eq. 2, vectorized);
* per-request DP routing.
"""

import numpy as np
import pytest

from repro.core import (
    CombinationState,
    initial_partition,
    latency_losses,
    multi_scale_combination,
    preprovision,
)
from repro.core.partition import initial_partition_reference
from repro.core.preprovision import preprovision_reference
from repro.model import Placement, optimal_routing
from repro.model.latency import total_latency
from repro.network.paths import PathTable
from repro.experiments.scenarios import ScenarioParams, build_scenario


@pytest.fixture(scope="module")
def instance():
    return build_scenario(ScenarioParams(n_servers=20, n_users=100, seed=0))


@pytest.fixture(scope="module")
def partitions(instance):
    return initial_partition(instance)


@pytest.fixture(scope="module")
def preprovisioned(instance, partitions):
    return preprovision(instance, partitions)


def test_component_path_table(benchmark, instance):
    rate = np.asarray(instance.network.rate_matrix)
    table = benchmark(PathTable.from_rate_matrix, rate)
    assert table.n == instance.n_servers


def test_component_partition(benchmark, instance):
    result = benchmark(initial_partition, instance)
    assert result.services


def test_component_partition_reference(benchmark, instance):
    """Alg. 1 with the original per-pair Python loops (paired baseline)."""
    result = benchmark(initial_partition_reference, instance)
    assert result.services


def test_component_preprovision(benchmark, instance, partitions):
    placement = benchmark(preprovision, instance, partitions)
    assert placement.total_instances > 0


def test_component_preprovision_reference(benchmark, instance, partitions):
    """Alg. 2 with per-node contribution loops (paired baseline)."""
    placement = benchmark(preprovision_reference, instance, partitions)
    assert placement.total_instances > 0


def test_component_latency_loss_sweep(benchmark, instance, partitions, preprovisioned):
    state = CombinationState(instance, partitions, preprovisioned)

    def sweep():
        state.invalidate()
        return latency_losses(state)

    zetas = benchmark(sweep)
    assert zetas


def test_component_serial_descent(benchmark, instance, partitions, preprovisioned):
    """Alg. 3-4 on the fig-9 instance (20 servers, 100 users, seed 0)."""
    placement, stats = benchmark(
        multi_scale_combination, instance, partitions, preprovisioned
    )
    assert stats.serial_merges > 0
    assert placement.total_instances > 0


def test_component_latency_evaluation(benchmark, instance, preprovisioned):
    routing = optimal_routing(instance, preprovisioned)
    lat = benchmark(total_latency, instance, routing)
    assert lat.shape == (instance.n_requests,)


def test_component_dp_routing(benchmark, instance, preprovisioned):
    routing = benchmark(optimal_routing, instance, preprovisioned)
    assert routing.assignment.shape[0] == instance.n_requests


def test_component_full_placement_routing(benchmark, instance):
    placement = Placement.full(instance)
    routing = benchmark(optimal_routing, instance, placement)
    assert not routing.uses_cloud().any()
