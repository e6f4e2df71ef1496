"""Tests for repro.runtime.serverless."""

import pytest

from repro.model import Placement
from repro.runtime import InstancePool, InstanceState, ServerlessConfig


class TestInstancePool:
    def _pool(self, tiny_instance, pairs, **cfg):
        placement = Placement.from_pairs(tiny_instance, pairs)
        return InstancePool(placement, ServerlessConfig(**cfg))

    def test_initially_cold(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)])
        assert pool.state(0, 0, now=0.0) is InstanceState.COLD

    def test_absent_state(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)])
        assert pool.state(1, 0, now=0.0) is InstanceState.ABSENT

    def test_cold_invocation_pays_penalty(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)], cold_start=0.7)
        assert pool.invoke(0, 0, now=0.0) == 0.7
        assert pool.cold_starts == 1

    def test_warm_invocation_free(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)], cold_start=0.7, keep_alive=100.0)
        pool.invoke(0, 0, now=0.0)
        assert pool.invoke(0, 0, now=50.0) == 0.0
        assert pool.warm_hits == 1

    def test_keep_alive_expiry(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)], cold_start=0.7, keep_alive=10.0)
        pool.invoke(0, 0, now=0.0)
        assert pool.state(0, 0, now=20.0) is InstanceState.COLD
        assert pool.invoke(0, 0, now=20.0) == 0.7

    def test_absent_invocation_raises(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)])
        with pytest.raises(ValueError, match="not provisioned"):
            pool.invoke(2, 2, now=0.0)

    def test_update_placement_evicts(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0), (1, 1)])
        pool.invoke(0, 0, now=0.0)
        new = Placement.from_pairs(tiny_instance, [(1, 1)])
        pool.update_placement(new)
        assert pool.state(0, 0, now=1.0) is InstanceState.ABSENT
        assert pool.n_provisioned == 1

    def test_surviving_instances_stay_warm(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0), (1, 1)], keep_alive=100.0)
        pool.invoke(1, 1, now=0.0)
        pool.update_placement(
            Placement.from_pairs(tiny_instance, [(1, 1), (2, 2)])
        )
        assert pool.state(1, 1, now=5.0) is InstanceState.WARM

    def test_warm_count(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0), (1, 1)], keep_alive=10.0)
        pool.invoke(0, 0, now=0.0)
        assert pool.warm_count(now=5.0) == 1
        assert pool.warm_count(now=50.0) == 0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ServerlessConfig(cold_start=-1.0)
