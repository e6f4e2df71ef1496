"""Tests for repro.runtime.serverless."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.model import Placement, optimal_routing
from repro.runtime import InstancePool, ServerlessConfig, SimulatedCluster
from tests.reference_pool import DictInstancePool


class TestInstancePool:
    def _pool(self, tiny_instance, pairs, **cfg):
        placement = Placement.from_pairs(tiny_instance, pairs)
        return InstancePool(placement, ServerlessConfig(**cfg))

    def test_initially_cold(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)], cold_start=0.7)
        assert pool.provisioned[0, 0]
        assert np.isnan(pool.last_used[0, 0])
        assert pool.warm_count(now=0.0) == 0
        assert pool.invoke(0, 0, now=0.0) == 0.7

    def test_absent_state(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0)])
        assert not pool.provisioned[1, 0]
        assert np.isnan(pool.last_used[1, 0])

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
        # idle for exactly keep_alive is still warm
        assert pool.warm_count(now=10.0) == 1
        assert pool.warm_count(now=20.0) == 0
        assert pool.invoke(0, 0, now=20.0) == 0.7
        assert pool.invoke(0, 0, now=30.0) == 0.0
        assert (pool.cold_starts, pool.warm_hits) == (2, 1)

    def test_pool_mismatching_placement_raises(self, tiny_instance):
        """The cluster's hops guard on the pool's mask, so a pool that
        does not provision what the placement does is refused up front."""
        placement = Placement.from_pairs(tiny_instance, [(0, 0), (2, 2)])
        routing = optimal_routing(tiny_instance, placement)
        pool = self._pool(tiny_instance, [(0, 0)])
        with pytest.raises(ValueError, match="differ from the placement"):
            SimulatedCluster(tiny_instance, placement, routing, pool=pool)

    def test_update_placement_evicts(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0), (1, 1)])
        pool.invoke(0, 0, now=0.0)
        new = Placement.from_pairs(tiny_instance, [(1, 1)])
        pool.update_placement(new)
        assert not pool.provisioned[0, 0]
        assert np.isnan(pool.last_used[0, 0])
        assert pool.n_provisioned == 1

    def test_surviving_instances_stay_warm(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0), (1, 1)], keep_alive=100.0)
        pool.invoke(1, 1, now=0.0)
        pool.update_placement(
            Placement.from_pairs(tiny_instance, [(1, 1), (2, 2)])
        )
        assert pool.last_used[1, 1] == 0.0
        assert pool.warm_count(now=5.0) == 1
        assert pool.invoke(1, 1, now=5.0) == 0.0

    def test_warm_count(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0), (1, 1)], keep_alive=10.0)
        pool.invoke(0, 0, now=0.0)
        assert pool.warm_count(now=5.0) == 1
        assert pool.warm_count(now=50.0) == 0

    def test_never_invoked_is_cold_under_infinite_keep_alive(self, tiny_instance):
        """A provisioned instance that was never invoked is cold however
        long the keep-alive: nothing made it resident."""
        pool = self._pool(
            tiny_instance, [(0, 0)], cold_start=0.7, keep_alive=float("inf")
        )
        assert pool.warm_count(now=0.0) == 0
        assert pool.warm_count(now=1e9) == 0
        assert pool.invoke(0, 0, now=1e9) == 0.7
        assert pool.cold_starts == 1
        assert pool.warm_count(now=2e9) == 1

    def test_evict_never_invoked_is_noop(self, tiny_instance):
        pool = self._pool(tiny_instance, [(0, 0), (1, 1)])
        pool.evict(0, 0)
        pool.evict(2, 2)  # not provisioned either
        assert pool.evictions == 0
        pool.invoke(1, 1, now=0.0)
        pool.evict(1, 1)
        pool.evict(1, 1)
        assert pool.evictions == 1

    def test_removed_then_readded_starts_cold(self, tiny_instance):
        pool = self._pool(
            tiny_instance, [(0, 0)], cold_start=0.7, keep_alive=100.0
        )
        pool.invoke(0, 0, now=0.0)
        pool.update_placement(Placement.from_pairs(tiny_instance, [(1, 1)]))
        pool.update_placement(Placement.from_pairs(tiny_instance, [(0, 0)]))
        assert pool.warm_count(now=1.0) == 0
        assert pool.invoke(0, 0, now=1.0) == 0.7
        assert pool.cold_starts == 2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ServerlessConfig(cold_start=-1.0)


# ---------------------------------------------------------------------------
# The dense table against the frozen dict-based pool
# ---------------------------------------------------------------------------
_S, _N = 3, 4
_masks = st.lists(
    st.booleans(), min_size=_S * _N, max_size=_S * _N
).map(lambda bits: np.array(bits, dtype=bool).reshape(_S, _N))
_pairs = st.tuples(st.integers(0, _S - 1), st.integers(0, _N - 1))
# whole-second clocks land exactly on the keep-alive boundary often,
# and may run backwards (each slot's clock restarts at 0)
_times = st.integers(0, 20).map(float)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("invoke"), _pairs, _times),
        st.tuples(st.just("prewarm"), _pairs, _times),
        st.tuples(st.just("evict"), _pairs),
        st.tuples(st.just("update"), _masks),
        st.tuples(st.just("warm_count"), _times),
    ),
    max_size=40,
)


def _same(a, b) -> bool:
    """Equal in type and in every digit."""
    return type(a) is type(b) and repr(a) == repr(b)


def _assert_tables_match(ref: DictInstancePool, pool: InstancePool) -> None:
    counters = ("cold_starts", "warm_hits", "evictions", "prewarms")
    for name in counters:
        assert _same(getattr(ref, name), getattr(pool, name)), name
    assert _same(ref.n_provisioned, pool.n_provisioned)
    for s in range(_S):
        for k in range(_N):
            assert ref.is_provisioned(s, k) == pool.provisioned[s, k]
            last = ref.last_used(s, k)
            cell = pool.last_used[s, k]
            if last is None:
                assert np.isnan(cell), (s, k)
            else:
                assert np.float64(last).tobytes() == cell.tobytes(), (s, k)


@settings(max_examples=200, deadline=None)
@given(
    mask=_masks,
    ops=_ops,
    cold_start=st.sampled_from([0.0, 0.5]),
    keep_alive=st.sampled_from([0.0, 5.0, math.inf]),
)
def test_table_matches_dict_pool(mask, ops, cold_start, keep_alive):
    """Every operation on the dense table returns, counts and stores
    exactly what the dict-based pool did.  ``invoke`` is only asked of
    provisioned pairs, its contract (the cluster guards every hop with
    the mask); the dict pool raised otherwise."""
    config = ServerlessConfig(cold_start=cold_start, keep_alive=keep_alive)
    ref = DictInstancePool(Placement(mask), config)
    pool = InstancePool(Placement(mask), config)
    for op, *args in ops:
        if op == "invoke":
            (s, k), now = args
            if ref.is_provisioned(s, k):
                assert _same(ref.invoke(s, k, now), pool.invoke(s, k, now))
        elif op == "prewarm":
            (s, k), now = args
            if ref.is_provisioned(s, k):
                ref.prewarm(s, k, now)
                pool.prewarm(s, k, now)
            else:
                for p in (ref, pool):
                    with pytest.raises(ValueError, match="not provisioned"):
                        p.prewarm(s, k, now)
        elif op == "evict":
            (s, k), = args
            ref.evict(s, k)
            pool.evict(s, k)
        elif op == "update":
            ref.update_placement(Placement(args[0]))
            pool.update_placement(Placement(args[0]))
        else:
            assert _same(ref.warm_count(args[0]), pool.warm_count(args[0]))
        _assert_tables_match(ref, pool)
