"""Analytic queueing formulas + DES-vs-theory validation.

The convergence tests drive a single simulated node with Poisson
arrivals of identical jobs — exactly an M/D/c queue — and require the
measured mean queueing delay to match the closed form.  This pins the
simulator's queueing semantics to theory rather than to itself.
"""

import numpy as np
import pytest

from repro.runtime.cluster import _Node
from tests.reference_queueing import (
    erlang_c,
    expected_attempts,
    markov_availability,
    md1_mean_wait,
    mdc_mean_wait_approx,
    mm1_mean_wait,
    mmc_mean_wait,
    pollaczek_khinchine_wait,
    utilization,
)


class TestFormulas:
    def test_utilization(self):
        assert utilization(2.0, 4.0) == 0.5
        assert utilization(2.0, 4.0, servers=2) == 0.25

    def test_mm1_known_value(self):
        # λ=1, μ=2 → ρ=0.5, W_q = 0.5/(2−1) = 0.5
        assert mm1_mean_wait(1.0, 2.0) == pytest.approx(0.5)

    def test_md1_half_of_mm1(self):
        # deterministic service halves PK waiting time
        assert md1_mean_wait(1.0, 2.0) == pytest.approx(0.5 * mm1_mean_wait(1.0, 2.0))

    def test_pk_reduces_to_mm1(self):
        # exponential service: Cv² = 1
        assert pollaczek_khinchine_wait(1.0, 0.5, 1.0) == pytest.approx(
            mm1_mean_wait(1.0, 2.0)
        )

    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="unstable"):
            mm1_mean_wait(2.0, 2.0)
        with pytest.raises(ValueError, match="unstable"):
            erlang_c(4.0, 1.0, 3)

    def test_erlang_c_single_server_is_rho(self):
        # for c = 1 the waiting probability equals ρ
        assert erlang_c(1.0, 2.0, 1) == pytest.approx(0.5)

    def test_erlang_c_bounds(self):
        p = erlang_c(3.0, 1.0, 5)
        assert 0.0 < p < 1.0

    def test_mmc_matches_mm1_at_c1(self):
        assert mmc_mean_wait(1.0, 2.0, 1) == pytest.approx(mm1_mean_wait(1.0, 2.0))

    def test_more_servers_less_wait(self):
        w1 = mmc_mean_wait(1.5, 1.0, 2)
        w2 = mmc_mean_wait(1.5, 1.0, 4)
        assert w2 < w1

    def test_wait_increases_with_load(self):
        waits = [md1_mean_wait(lam, 1.0) for lam in (0.3, 0.6, 0.9)]
        assert waits[0] < waits[1] < waits[2]


def _simulate_node_wait(
    arrival_rate: float,
    service_time: float,
    cores: int,
    n_jobs: int,
    seed: int = 0,
) -> float:
    """Mean queueing delay of a FIFO node under Poisson arrivals."""
    rng = np.random.default_rng(seed)
    node = _Node(0, compute=1.0, cores=cores)
    work = service_time  # compute=1 → service time equals work
    t = 0.0
    waits = []
    for _ in range(n_jobs):
        t += rng.exponential(1.0 / arrival_rate)
        _, wait = node.enqueue(t, work)
        waits.append(wait)
    # drop warmup
    return float(np.mean(waits[n_jobs // 10 :]))


class TestDesMatchesTheory:
    @pytest.mark.parametrize("rho", [0.5, 0.7])
    def test_md1_convergence(self, rho):
        service = 1.0
        lam = rho / service
        measured = _simulate_node_wait(lam, service, cores=1, n_jobs=40_000)
        analytic = md1_mean_wait(lam, 1.0 / service)
        assert measured == pytest.approx(analytic, rel=0.10)

    def test_mdc_convergence(self):
        rho = 0.7
        cores = 2
        service = 1.0
        lam = rho * cores / service
        measured = _simulate_node_wait(lam, service, cores=cores, n_jobs=40_000)
        analytic = mdc_mean_wait_approx(lam, 1.0 / service, cores)
        # the M/D/c closed form is itself an approximation: 25% band
        assert measured == pytest.approx(analytic, rel=0.25)

    def test_low_load_near_zero_wait(self):
        measured = _simulate_node_wait(0.1, 1.0, cores=1, n_jobs=5_000)
        assert measured < 0.1

    def test_wait_grows_with_load_in_des(self):
        w_low = _simulate_node_wait(0.3, 1.0, cores=1, n_jobs=10_000)
        w_high = _simulate_node_wait(0.8, 1.0, cores=1, n_jobs=10_000)
        assert w_high > w_low


class TestResilienceFormulas:
    """Closed forms backing the resilience layer's sanity checks."""

    def test_expected_attempts_no_failures(self):
        assert expected_attempts(0.0, 5) == 1.0

    def test_expected_attempts_truncated_geometric(self):
        # p=0.5, r=2 → 1 + 0.5 + 0.25 = 1.75
        assert expected_attempts(0.5, 2) == pytest.approx(1.75)
        # r=0 → always exactly one attempt
        assert expected_attempts(0.9, 0) == 1.0

    def test_expected_attempts_monotone_in_retries(self):
        vals = [expected_attempts(0.3, r) for r in range(5)]
        assert vals == sorted(vals)
        # unbounded limit is 1/(1−p)
        assert expected_attempts(0.3, 200) == pytest.approx(1.0 / 0.7)

    def test_expected_attempts_validation(self):
        with pytest.raises(ValueError):
            expected_attempts(1.5, 2)
        with pytest.raises(ValueError):
            expected_attempts(0.5, -1)

    def test_markov_availability_closed_form(self):
        assert markov_availability(0.0, 1.0) == 1.0
        assert markov_availability(0.1, 0.3) == pytest.approx(0.75)

    def test_markov_availability_matches_outage_schedule(self):
        from repro.runtime.failures import OutageSchedule
        sched = OutageSchedule(
            n_nodes=50, fail_prob=0.1, repair_prob=0.3, seed=0
        )
        up = 0
        slots = 3000
        for _ in range(slots):
            sched.step()
            up += 50 - len(sched.down_nodes)
        measured = up / (50 * slots)
        assert measured == pytest.approx(markov_availability(0.1, 0.3), rel=0.05)

    def test_markov_availability_validation(self):
        with pytest.raises(ValueError):
            markov_availability(0.5, 0.0)
        with pytest.raises(ValueError):
            markov_availability(-0.1, 0.5)
