"""Analytic queueing formulas: the theory oracle of the DES cluster.

The simulated cluster's nodes are FIFO multi-core servers with
deterministic per-invocation service times; under Poisson arrivals a
single-core node is exactly an **M/D/1** queue and a multi-core node an
**M/D/c**.  These closed forms let ``tests/test_runtime_queueing.py``
check the simulator's queueing behaviour against theory instead of
against itself, which is what makes the Fig. 9/10 substitution
credible.  It is a test oracle, not part of the runtime: nothing under
``src/`` calls it.


* :func:`mm1_mean_wait` — M/M/1 queueing delay ``ρ/(μ−λ)``;
* :func:`md1_mean_wait` — M/D/1 via Pollaczek–Khinchine with zero
  service-time variance, ``ρ/(2μ(1−ρ))``;
* :func:`pollaczek_khinchine_wait` — general M/G/1;
* :func:`erlang_c` / :func:`mmc_mean_wait` — M/M/c delay probability and
  mean wait;
* :func:`utilization` — offered load ``ρ = λ/(c·μ)``;
* :func:`expected_attempts` / :func:`markov_availability` — closed forms
  for the resilience layer: retry load amplification under bounded
  retry, and the stationary availability of the outage Markov chain.

All waits are *queueing* delays (time in buffer, excluding service).
"""

from __future__ import annotations

import math

from repro.utils.validation import check_positive


def utilization(arrival_rate: float, service_rate: float, servers: int = 1) -> float:
    """Offered load ``ρ = λ / (c·μ)``."""
    check_positive("arrival_rate", arrival_rate)
    check_positive("service_rate", service_rate)
    check_positive("servers", servers)
    return arrival_rate / (servers * service_rate)


def _require_stable(rho: float) -> None:
    if rho >= 1.0:
        raise ValueError(f"queue is unstable at utilization {rho:.3f} >= 1")


def mm1_mean_wait(arrival_rate: float, service_rate: float) -> float:
    """Mean M/M/1 queueing delay ``W_q = ρ / (μ − λ)``."""
    rho = utilization(arrival_rate, service_rate)
    _require_stable(rho)
    return rho / (service_rate - arrival_rate)


def pollaczek_khinchine_wait(
    arrival_rate: float, mean_service: float, service_cv2: float
) -> float:
    """Mean M/G/1 queueing delay (Pollaczek–Khinchine).

    ``W_q = λ·E[S²] / (2(1−ρ)) = ρ·E[S]·(1+Cv²) / (2(1−ρ))`` with
    ``Cv²`` the squared coefficient of variation of service time.
    """
    check_positive("arrival_rate", arrival_rate)
    check_positive("mean_service", mean_service)
    if service_cv2 < 0:
        raise ValueError(f"service_cv2 must be non-negative, got {service_cv2}")
    rho = arrival_rate * mean_service
    _require_stable(rho)
    return rho * mean_service * (1.0 + service_cv2) / (2.0 * (1.0 - rho))


def md1_mean_wait(arrival_rate: float, service_rate: float) -> float:
    """Mean M/D/1 queueing delay: PK with deterministic service."""
    check_positive("service_rate", service_rate)
    return pollaczek_khinchine_wait(arrival_rate, 1.0 / service_rate, 0.0)


def erlang_c(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Erlang-C probability that an arriving M/M/c job must wait."""
    rho = utilization(arrival_rate, service_rate, servers)
    _require_stable(rho)
    a = arrival_rate / service_rate  # offered traffic in Erlangs
    c = int(servers)
    summation = sum(a**k / math.factorial(k) for k in range(c))
    top = a**c / (math.factorial(c) * (1.0 - rho))
    return top / (summation + top)


def mmc_mean_wait(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Mean M/M/c queueing delay ``W_q = C(c, a) / (c·μ − λ)``."""
    p_wait = erlang_c(arrival_rate, service_rate, servers)
    return p_wait / (servers * service_rate - arrival_rate)


def mdc_mean_wait_approx(
    arrival_rate: float, service_rate: float, servers: int
) -> float:
    """Mean M/D/c queueing delay (Cosmetatos-style approximation).

    Uses the standard heavy-traffic scaling ``W_q(M/D/c) ≈ ½·W_q(M/M/c)``
    — exact for c = 1 and within a few percent for small c at moderate
    load, which is all the validation tests need.
    """
    return 0.5 * mmc_mean_wait(arrival_rate, service_rate, servers)


def expected_attempts(fail_prob: float, max_retries: int) -> float:
    """Expected invocation attempts per hop under bounded retry.

    With per-attempt failure probability ``p`` and at most ``r``
    retries, the attempt count is truncated-geometric:
    ``E[A] = Σ_{k=0}^{r} p^k = (1 − p^{r+1}) / (1 − p)`` — the load
    amplification the retry policy injects into the cluster, used to
    sanity-check the resilience experiment's retry counters.
    """
    if not 0.0 <= fail_prob <= 1.0:
        raise ValueError(f"fail_prob must be in [0, 1], got {fail_prob}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be non-negative, got {max_retries}")
    if fail_prob == 1.0:
        return float(max_retries + 1)
    return (1.0 - fail_prob ** (max_retries + 1)) / (1.0 - fail_prob)


def markov_availability(fail_prob: float, repair_prob: float) -> float:
    """Steady-state up-probability of the two-state outage Markov chain.

    The :class:`repro.runtime.failures.OutageSchedule` node process has
    per-slot fail probability ``λ`` (up → down) and repair probability
    ``μ`` (down → up); its stationary availability is ``μ / (λ + μ)``.
    ``OutageSchedule.availability`` converges to this closed form.
    """
    if not 0.0 <= fail_prob <= 1.0:
        raise ValueError(f"fail_prob must be in [0, 1], got {fail_prob}")
    if not 0.0 < repair_prob <= 1.0:
        raise ValueError(f"repair_prob must be in (0, 1], got {repair_prob}")
    return repair_prob / (fail_prob + repair_prob)
