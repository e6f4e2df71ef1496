"""Tests for repro.workload.trace and repro.workload.mobility."""

import numpy as np
import pytest
from scipy import stats

from repro.network import EdgeNetwork, EdgeServer, Link, grid_topology
from repro.workload import RandomWaypointMobility, TemporalTrace, generate_arrivals
from repro.workload.trace import diurnal_rate


class TestDiurnalRate:
    def test_peaks_above_base(self):
        t = np.linspace(0, 24, 200)
        rate = diurnal_rate(t, base=10.0)
        assert rate.max() > 15.0
        assert rate.min() >= 10.0

    def test_periodic(self):
        assert diurnal_rate(np.array([1.0])) == pytest.approx(
            diurnal_rate(np.array([25.0]))
        )

    def test_peak_location(self):
        t = np.linspace(0, 24, 24 * 60)
        rate = diurnal_rate(t, morning_peak=9.5)
        peak_hour = t[int(np.argmax(rate))] % 24
        assert abs(peak_hour - 9.5) < 0.5 or abs(peak_hour - 20.0) < 0.5


class TestTemporalTrace:
    def test_properties(self):
        trace = TemporalTrace(interval_minutes=5.0, volumes=np.array([1, 2, 3]))
        assert trace.n_intervals == 3
        assert trace.duration_hours == pytest.approx(0.25)

    def test_hours_wrap(self):
        trace = TemporalTrace(
            interval_minutes=60.0, volumes=np.ones(30), start_hour=22.0
        )
        assert trace.hours.max() < 24.0

    def test_peak_to_mean(self):
        trace = TemporalTrace(interval_minutes=5.0, volumes=np.array([1, 1, 4]))
        assert trace.peak_to_mean() == pytest.approx(2.0)

    def test_zero_volumes(self):
        trace = TemporalTrace(interval_minutes=5.0, volumes=np.zeros(3))
        assert trace.peak_to_mean() == 0.0
        assert trace.coefficient_of_variation() == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            TemporalTrace(interval_minutes=0.0, volumes=np.ones(3))
        with pytest.raises(ValueError):
            TemporalTrace(interval_minutes=5.0, volumes=np.array([]))
        with pytest.raises(ValueError):
            TemporalTrace(interval_minutes=5.0, volumes=np.array([-1.0]))


class TestGenerateArrivals:
    def test_interval_count(self):
        trace = generate_arrivals(10.0, interval_minutes=5.0, seed=0)
        assert trace.n_intervals == 120

    def test_deterministic(self):
        a = generate_arrivals(2.0, seed=7)
        b = generate_arrivals(2.0, seed=7)
        assert np.array_equal(a.volumes, b.volumes)

    def test_fluctuating(self):
        # the paper's Fig. 4 point: significant temporal fluctuation
        trace = generate_arrivals(10.0, seed=0)
        assert trace.coefficient_of_variation() > 0.1
        assert trace.peak_to_mean() > 1.3

    def test_bursts_raise_peak(self):
        calm = generate_arrivals(10.0, seed=1, burst_rate_per_hour=0.0)
        bursty = generate_arrivals(
            10.0, seed=1, burst_rate_per_hour=3.0, burst_magnitude=6.0
        )
        assert bursty.volumes.max() >= calm.volumes.max()

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            generate_arrivals(0.0)


class TestMobility:
    @pytest.fixture
    def net(self):
        return grid_topology(3, 3, seed=0)

    def test_initial_homes_in_range(self, net):
        mob = RandomWaypointMobility(net, 20, seed=0)
        assert mob.homes.min() >= 0 and mob.homes.max() < net.n

    def test_discrete_moves_to_neighbors(self, net):
        # move_prob=1 and no isolated node: every user hops to a neighbour
        mob = RandomWaypointMobility(net, 200, move_prob=1.0, seed=0)
        for _ in range(3):
            before = mob.homes
            after = mob.step()
            for b, a in zip(before, after):
                assert a in net.neighbors(int(b))

    def test_zero_move_prob_is_static(self, net):
        mob = RandomWaypointMobility(net, 20, move_prob=0.0, seed=0)
        before = mob.homes
        after = mob.step()
        assert np.array_equal(before, after)

    def test_deterministic(self, net):
        a = RandomWaypointMobility(net, 50, seed=3)
        b = RandomWaypointMobility(net, 50, seed=3)
        assert np.array_equal(a.homes, b.homes)
        for _ in range(5):
            assert np.array_equal(a.step(), b.step())

    def test_hop_distribution(self, net):
        """One step from a single node matches the closed form.

        Stay with probability ``1 - move_prob``, otherwise a uniform
        neighbour: a chi-square test at a fixed seed over the stay
        outcome and each neighbour, and no mass anywhere else.
        """
        n_users, move_prob, start = 20_000, 0.3, 4
        mob = RandomWaypointMobility(net, n_users, move_prob=move_prob, seed=7)
        mob._homes[:] = start
        counts = np.bincount(mob.step(), minlength=net.n)
        nbrs = net.neighbors(start)
        assert nbrs.size == 4
        outcomes = np.concatenate(([start], nbrs))
        assert counts[outcomes].sum() == n_users
        expected = n_users * np.concatenate(
            ([1.0 - move_prob], np.full(nbrs.size, move_prob / nbrs.size))
        )
        _, p = stats.chisquare(counts[outcomes], expected)
        assert p > 0.01

    def test_isolated_node_stays(self):
        # server 0 has no links; servers 1 and 2 are linked
        servers = [
            EdgeServer(k, compute=10.0, storage=10.0, position=(k, 0))
            for k in range(3)
        ]
        net = EdgeNetwork(servers, [Link(1, 2, bandwidth=10.0)])
        mob = RandomWaypointMobility(net, 100, move_prob=1.0, seed=0)
        mob._homes[:50] = 0
        mob._homes[50:] = 1
        for _ in range(3):
            homes = mob.step()
            assert (homes[:50] == 0).all()
            assert (homes[50:] != 0).all()
