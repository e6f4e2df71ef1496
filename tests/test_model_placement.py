"""Tests for repro.model.placement (Placement and Routing)."""

import numpy as np
import pytest

from repro.model import BatchRouter, Placement, Routing, optimal_routing


class TestPlacement:
    def test_empty(self, tiny_instance):
        p = Placement.empty(tiny_instance)
        assert p.total_instances == 0
        assert p.hosts(0).size == 0

    def test_full_covers_requested(self, tiny_instance):
        p = Placement.full(tiny_instance)
        for svc in tiny_instance.requested_services:
            assert p.instance_count(int(svc)) == tiny_instance.n_servers

    def test_from_pairs(self, tiny_instance):
        p = Placement.from_pairs(tiny_instance, [(0, 1), (2, 0)])
        assert p.has(0, 1)
        assert p.has(2, 0)
        assert not p.has(0, 0)

    def test_from_pairs_validates(self, tiny_instance):
        with pytest.raises(IndexError):
            Placement.from_pairs(tiny_instance, [(0, 99)])

    def test_add_remove(self, tiny_instance):
        p = Placement.empty(tiny_instance)
        p.add(1, 2)
        assert p.has(1, 2)
        p.remove(1, 2)
        assert not p.has(1, 2)

    def test_remove_missing_raises(self, tiny_instance):
        p = Placement.empty(tiny_instance)
        with pytest.raises(ValueError, match="no instance"):
            p.remove(0, 0)

    def test_services_on(self, tiny_instance):
        p = Placement.from_pairs(tiny_instance, [(0, 1), (2, 1)])
        assert list(p.services_on(1)) == [0, 2]

    def test_pairs_sorted(self, tiny_instance):
        p = Placement.from_pairs(tiny_instance, [(2, 0), (0, 1)])
        assert p.pairs() == [(0, 1), (2, 0)]

    def test_copy_independent(self, tiny_instance):
        p = Placement.from_pairs(tiny_instance, [(0, 0)])
        q = p.copy()
        q.add(1, 1)
        assert not p.has(1, 1)

    def test_equality(self, tiny_instance):
        a = Placement.from_pairs(tiny_instance, [(0, 0)])
        b = Placement.from_pairs(tiny_instance, [(0, 0)])
        c = Placement.from_pairs(tiny_instance, [(0, 1)])
        assert a == b
        assert a != c

    def test_matrix_readonly(self, tiny_instance):
        p = Placement.empty(tiny_instance)
        with pytest.raises(ValueError):
            p.matrix[0, 0] = True

    def test_constructor_copies(self, tiny_instance):
        x = np.zeros((3, 3), dtype=bool)
        p = Placement(x)
        x[0, 0] = True
        assert not p.has(0, 0)

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            Placement(np.zeros(5, dtype=bool))


class TestRouting:
    def _valid_assignment(self, instance):
        a = np.full((instance.n_requests, instance.max_chain), -1, dtype=np.int64)
        for h, req in enumerate(instance.requests):
            a[h, : req.length] = 0
        return a

    def test_construction(self, tiny_instance):
        r = Routing(tiny_instance, self._valid_assignment(tiny_instance))
        assert np.array_equal(r.nodes_for(0), [0, 0, 0])

    def test_from_lists(self, tiny_instance):
        lists = [[0] * req.length for req in tiny_instance.requests]
        r = Routing.from_lists(tiny_instance, lists)
        assert np.array_equal(r.nodes_for(1), [0, 0])

    def test_from_lists_length_mismatch(self, tiny_instance):
        lists = [[0] * req.length for req in tiny_instance.requests]
        lists[0] = [0]
        with pytest.raises(ValueError, match="expected 3 nodes"):
            Routing.from_lists(tiny_instance, lists)

    def test_wrong_shape_rejected(self, tiny_instance):
        with pytest.raises(ValueError, match="shape"):
            Routing(tiny_instance, np.zeros((2, 2), dtype=np.int64))

    def test_out_of_range_node_rejected(self, tiny_instance):
        assert tiny_instance.cloud == 3
        # past the servers, past the cloud index, padding at a chain position
        for pos, value in [((0, 0), 99), ((0, 1), 4), ((0, 0), -1)]:
            a = self._valid_assignment(tiny_instance)
            a[pos] = value
            with pytest.raises(ValueError, match="out-of-range"):
                Routing(tiny_instance, a)

    def test_bad_padding_rejected(self, tiny_instance):
        # request 1 has length 2; position 2 must stay -1, cloud included
        for value in (0, tiny_instance.cloud):
            a = self._valid_assignment(tiny_instance)
            a[1, 2] = value
            with pytest.raises(ValueError, match="padding"):
                Routing(tiny_instance, a)

    def test_router_routing_is_a_copy(self, tiny_instance):
        placement = Placement.full(tiny_instance)
        router = BatchRouter(tiny_instance)
        r = router.route(placement)
        assert np.array_equal(
            r.assignment, optimal_routing(tiny_instance, placement).assignment
        )
        assert not np.shares_memory(r.assignment, router.score(placement).assignment)

    def test_cloud_assignment_allowed(self, tiny_instance):
        a = self._valid_assignment(tiny_instance)
        a[0, 1] = tiny_instance.cloud
        r = Routing(tiny_instance, a)
        assert r.uses_cloud()[0]
        assert not r.uses_cloud()[1]

    def test_served_pairs_excludes_cloud(self, tiny_instance):
        a = self._valid_assignment(tiny_instance)
        a[0, 0] = tiny_instance.cloud
        r = Routing(tiny_instance, a)
        pairs = r.served_pairs()
        assert (0, tiny_instance.cloud) not in pairs
        assert all(k < tiny_instance.n_servers for _, k in pairs)

    def test_copy(self, tiny_instance):
        r = Routing(tiny_instance, self._valid_assignment(tiny_instance))
        assert np.array_equal(r.copy().assignment, r.assignment)

    def test_assignment_readonly(self, tiny_instance):
        r = Routing(tiny_instance, self._valid_assignment(tiny_instance))
        with pytest.raises(ValueError):
            r.assignment[0, 0] = 1
