"""Tests for repro.runtime.failures (outage schedule + degradation)."""

import hashlib

import numpy as np
import pytest

from repro.core import SoCL
from repro.core.online import OnlineSoCL
from repro.microservices import eshop_application
from repro.model import ProblemConfig, ProblemInstance
from repro.network import stadium_topology
from repro.runtime import OnlineSimulator, OutageSchedule, degrade_instance
from repro.workload import RequestBatch, WorkloadSpec, generate_requests


@pytest.fixture
def instance():
    net = stadium_topology(10, seed=3)
    app = eshop_application()
    reqs = generate_requests(
        net, app, WorkloadSpec(n_users=20, data_scale=5.0), rng=0
    )
    return ProblemInstance(net, app, reqs, ProblemConfig(budget=6000.0))


class TestOutageSchedule:
    def test_starts_all_up(self):
        sched = OutageSchedule(10, seed=0)
        assert sched.down_nodes == frozenset()

    def test_no_failures_when_prob_zero(self):
        sched = OutageSchedule(10, fail_prob=0.0, seed=0)
        for _ in range(20):
            assert sched.step() == frozenset()

    def test_failures_happen(self):
        sched = OutageSchedule(10, fail_prob=0.5, repair_prob=0.2, seed=0)
        seen_down = set()
        for _ in range(20):
            seen_down |= sched.step()
        assert seen_down

    def test_repairs_happen(self):
        sched = OutageSchedule(5, fail_prob=0.9, repair_prob=0.9, seed=0)
        histories = [sched.step() for _ in range(30)]
        # at least one node went down and came back
        went_down = set().union(*histories)
        assert any(
            any(n in h for h in histories) and any(n not in h for h in histories[1:])
            for n in went_down
        )

    def test_never_all_down(self):
        sched = OutageSchedule(4, fail_prob=1.0, repair_prob=0.0, seed=0)
        for _ in range(10):
            assert len(sched.step()) < 4

    def test_protected_nodes_stay_up(self):
        sched = OutageSchedule(6, fail_prob=1.0, repair_prob=0.0, seed=0, protect=[2])
        for _ in range(10):
            assert 2 not in sched.step()

    def test_availability(self):
        sched = OutageSchedule(10, fail_prob=0.1, repair_prob=0.9, seed=0)
        a = sched.availability(100)
        assert 0.7 < a <= 1.0

    def test_deterministic(self):
        a = OutageSchedule(8, fail_prob=0.3, seed=5)
        b = OutageSchedule(8, fail_prob=0.3, seed=5)
        for _ in range(10):
            assert a.step() == b.step()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            OutageSchedule(0)
        with pytest.raises(ValueError):
            OutageSchedule(5, fail_prob=1.5)


class TestDegradeInstance:
    def test_no_outage_returns_same(self, instance):
        assert degrade_instance(instance, frozenset()) is instance

    def test_down_node_unplaceable(self, instance):
        degraded = degrade_instance(instance, {3})
        # storage below any service footprint
        assert degraded.server_storage[3] < instance.service_storage.min()

    def test_down_node_links_survive(self, instance):
        degraded = degrade_instance(instance, {3})
        assert np.allclose(
            degraded.network.rate_matrix, instance.network.rate_matrix
        )
        assert degraded.network.is_connected

    def test_users_rehomed(self, instance):
        down = {int(instance.homes[0])}
        degraded = degrade_instance(instance, down)
        assert not any(int(h) in down for h in degraded.homes)

    def test_up_users_untouched(self, instance):
        down = {int(instance.homes[0])}
        degraded = degrade_instance(instance, down)
        for old, new in zip(instance.requests, degraded.requests):
            if old.home not in down:
                assert new.home == old.home
            assert new.chain == old.chain

    def test_rehomed_to_nearest_live_node(self, instance):
        down = {int(instance.homes[0]), 5, 6}
        degraded = degrade_instance(instance, down)
        inv = instance.network.paths.inv_rate
        up = np.array([k for k in range(instance.n_servers) if k not in down])
        for old, new in zip(instance.homes, degraded.homes):
            want = old if old not in down else up[np.argmin(inv[old, up])]
            assert new == want

    def test_keeps_the_request_columns(self, instance):
        degraded = degrade_instance(instance, {int(instance.homes[0])})
        assert isinstance(degraded.requests, RequestBatch)
        for name in ("index", "chains", "chain_offsets", "data_in",
                     "data_out", "edge_data"):
            assert np.array_equal(
                getattr(degraded.requests, name),
                getattr(instance.requests, name),
            )

    def test_per_request_deadlines_kept(self, instance):
        deadlines = np.linspace(1.0, 5.0, instance.n_requests)
        degraded = degrade_instance(instance.with_deadlines(deadlines), {0})
        assert np.array_equal(degraded.deadlines, deadlines)

    def test_solver_avoids_down_nodes(self, instance):
        down = {0, 1}
        degraded = degrade_instance(instance, down)
        result = SoCL().solve(degraded)
        assert result.feasibility.feasible
        for svc, node in result.placement.pairs():
            assert node not in down

    def test_all_down_rejected(self, instance):
        with pytest.raises(ValueError, match="every edge node"):
            degrade_instance(instance, set(range(instance.n_servers)))

    def test_bad_index_rejected(self, instance):
        with pytest.raises(IndexError):
            degrade_instance(instance, {99})


class TestSimulatorWithOutages:
    def test_trace_survives_failures(self):
        net = stadium_topology(10, seed=3)
        app = eshop_application()
        sim = OnlineSimulator(
            net,
            app,
            ProblemConfig(budget=6000.0),
            WorkloadSpec(n_users=12, data_scale=5.0),
            seed=42,
        )
        sched = OutageSchedule(10, fail_prob=0.2, repair_prob=0.5, seed=1)
        res = sim.run(SoCL(), n_slots=4, outages=sched)
        assert len(res.slots) == 4
        assert any(s.n_down_nodes > 0 for s in res.slots)
        assert all(np.isfinite(s.mean_latency) for s in res.slots)

    def test_failures_hurt_latency(self):
        net = stadium_topology(10, seed=3)
        app = eshop_application()

        def run(outages):
            sim = OnlineSimulator(
                net,
                app,
                ProblemConfig(budget=6000.0),
                WorkloadSpec(n_users=12, data_scale=5.0),
                seed=42,
            )
            return sim.run(SoCL(), n_slots=4, outages=outages)

        healthy = run(None)
        degraded = run(OutageSchedule(10, fail_prob=0.5, repair_prob=0.1, seed=1))
        # losing nodes restricts placement → delay cannot improve (allow
        # small noise)
        assert degraded.mean_delay >= healthy.mean_delay * 0.95


@pytest.mark.usefixtures("per_user_stream")
class TestOutageGolden:
    """Recorded outcomes of an online trace under node outages.

    Pins the whole path from :func:`degrade_instance` through the solve
    and the replay: every slot's objective, cost, mean/max latency, cold
    starts and down-node count, plus the exact per-request latency
    array, hashed with SHA-256 for ``SoCL`` and ``OnlineSoCL``.  The
    online solver's shift threshold is raised so that slots 2-6 take the
    incremental repair path rather than a full solve.  Requests come
    from the frozen per-user stream (``per_user_stream``).
    """

    GOLDEN = {
        "SoCL": (
            "a93c35eca06e602a84d6ef49a065017d"
            "1a7a3f5a06ab186358d718ca7e56db36"
        ),
        "OnlineSoCL": (
            "851cb35dae0d4caaaf20a078fa291abc"
            "ba41342c31941ad1e680d5f2bad42ea5"
        ),
    }

    @staticmethod
    def _digest(solver):
        sim = OnlineSimulator(
            stadium_topology(12, seed=0),
            eshop_application(),
            ProblemConfig(budget=6000.0),
            WorkloadSpec(n_users=300, data_scale=5.0),
            seed=1,
        )
        sched = OutageSchedule(12, fail_prob=0.3, seed=1)
        res = sim.run(solver, n_slots=6, outages=sched)
        h = hashlib.sha256()
        for r in res.slots:
            h.update(repr((
                r.slot, r.n_requests, float(r.objective).hex(),
                float(r.cost).hex(), float(r.mean_latency).hex(),
                float(r.max_latency).hex(), r.cold_starts, r.n_down_nodes,
            )).encode())
        h.update(res.recorder.all_latencies().tobytes())
        return res, h.hexdigest()

    @pytest.mark.parametrize("name, solver", [
        ("SoCL", SoCL),
        ("OnlineSoCL", lambda: OnlineSoCL(shift_threshold=2.0)),
    ])
    def test_digest(self, name, solver):
        res, digest = self._digest(solver())
        assert any(r.n_down_nodes > 0 for r in res.slots)
        assert digest == self.GOLDEN[name]
