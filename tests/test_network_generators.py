"""Tests for repro.network.generators."""

import numpy as np
import pytest

from repro.network import grid_topology, stadium_topology
from repro.network.generators import (
    BANDWIDTH_RANGE,
    COMPUTE_RANGE,
    STORAGE_RANGE,
)


ALL_GENERATORS = {
    "stadium": lambda seed: stadium_topology(12, seed=seed),
    "grid": lambda seed: grid_topology(3, 4, seed=seed),
}


@pytest.mark.parametrize(
    "gen", list(ALL_GENERATORS.values()), ids=list(ALL_GENERATORS)
)
class TestCommonProperties:
    def test_connected(self, gen):
        assert gen(0).is_connected

    def test_size(self, gen):
        assert gen(0).n == 12

    def test_deterministic(self, gen):
        a, b = gen(7), gen(7)
        assert np.allclose(a.rate_matrix, b.rate_matrix)
        assert np.allclose(a.compute, b.compute)

    def test_seed_changes_output(self, gen):
        a, b = gen(1), gen(2)
        assert not (
            np.allclose(a.compute, b.compute)
            and np.allclose(a.rate_matrix, b.rate_matrix)
        )

    def test_parameter_ranges(self, gen):
        net = gen(3)
        assert (net.compute >= COMPUTE_RANGE[0]).all()
        assert (net.compute <= COMPUTE_RANGE[1]).all()
        assert (net.storage >= STORAGE_RANGE[0]).all()
        assert (net.storage <= STORAGE_RANGE[1]).all()
        bw = net.bandwidth_matrix
        nz = bw[bw > 0]
        assert (nz >= BANDWIDTH_RANGE[0]).all()
        assert (nz <= BANDWIDTH_RANGE[1]).all()


class TestSpecificShapes:
    def test_grid_link_count(self):
        net = grid_topology(3, 3, seed=0)
        # 3x3 grid: 2*3 horizontal rows of 2 + vertical = 12 links
        assert len(net.links) == 12

    def test_stadium_positions_within_extent(self):
        from repro.network.generators import STADIUM_EXTENT_KM

        net = stadium_topology(30, seed=1)
        pos = net.positions
        assert (pos >= 0).all() and (pos <= STADIUM_EXTENT_KM).all()

    def test_custom_ranges_respected(self):
        net = stadium_topology(
            8, seed=0, compute_range=(1.0, 2.0), storage_range=(10.0, 12.0)
        )
        assert (net.compute <= 2.0).all()
        assert (net.storage >= 10.0).all()
