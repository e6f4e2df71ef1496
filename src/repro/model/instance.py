"""Problem instances: network + application + requests + model parameters.

A :class:`ProblemInstance` freezes one decision problem (paper Def. 1-4)
and precomputes the dense arrays every solver consumes:

* ``inv_rate`` — all-pairs ``Σ 1/b`` transfer coefficients, extended with
  a virtual **cloud** node (index ``n``) so that cloud-fallback routing
  (paper §IV.C: "rely on the cloud servers as a fallback option") shares
  the same vectorized code path as edge routing;
* padded request-chain matrices (``chain_matrix``, ``edge_data_matrix``)
  enabling whole-workload latency evaluation without Python loops;
* demand matrices ``|U^{m_i}_{v_k}|`` and the data-volume variant used by
  the partitioning stage.

:class:`ProblemConfig` carries the model-level parameters: the trade-off
weight ``λ``, budget ``K^max``, per-request deadline ``D^max``, the
latency model (``"chain"`` — physically accurate Eq. 2; ``"star"`` — the
home-anchored approximation SoCL's internal formulas use), and the cloud
fallback rate/compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from repro.microservices.application import Application
from repro.network.topology import EdgeNetwork
from repro.utils.validation import check_positive, check_probability
from repro.workload.requests import RequestBatch, UserRequest

#: Sentinel node index meaning "served from the cloud data center".
#: Within an instance the cloud is materialized as node index ``n``.
CLOUD = -2


@dataclass(frozen=True)
class ProblemConfig:
    """Model-level parameters of one problem (paper Eq. 3-6).

    Attributes
    ----------
    weight:
        Trade-off ``λ`` between cost (weight) and latency (1 − weight).
    budget:
        Global deployment budget ``K^max`` (Eq. 5).
    deadline:
        Per-request completion-time cap ``D^max_h`` (Eq. 4); scalar applied
        to all requests, or ``inf`` for uncapped.
    latency_model:
        ``"chain"`` (Eq. 2 consecutive-pair communication, default) or
        ``"star"`` (home-anchored cycles, the form in Eq. 7/ψ/Δ/D).
    cloud_inv_rate:
        Seconds per GB between any edge server and the cloud (WAN).  Large
        relative to edge virtual links so the fallback is costly.
    cloud_compute:
        Cloud computing capability (GFLOP/s); effectively unconstrained.
    """

    weight: float = 0.5
    budget: float = 6000.0
    deadline: float = np.inf
    latency_model: str = "chain"
    cloud_inv_rate: float = 1.0
    cloud_compute: float = 100.0

    def __post_init__(self) -> None:
        check_probability("weight", self.weight)
        check_positive("budget", self.budget)
        if not self.deadline > 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.latency_model not in ("chain", "star"):
            raise ValueError(
                f"latency_model must be 'chain' or 'star', got {self.latency_model!r}"
            )
        check_positive("cloud_inv_rate", self.cloud_inv_rate)
        check_positive("cloud_compute", self.cloud_compute)

    def with_(self, **kwargs) -> "ProblemConfig":
        """Functional update helper."""
        return replace(self, **kwargs)


class ProblemInstance:
    """One frozen joint provisioning/routing problem."""

    def __init__(
        self,
        network: EdgeNetwork,
        app: Application,
        requests: Sequence[UserRequest],
        config: ProblemConfig = ProblemConfig(),
        deadlines: Optional[Sequence[float]] = None,
    ):
        if not len(requests):
            raise ValueError("instance must contain at least one request")
        self.network = network
        self.app = app
        #: The workload as a columnar
        #: :class:`~repro.workload.requests.RequestBatch`; any other
        #: sequence of :class:`UserRequest` is converted once here.
        #: Derived arrays read its columns; indexing or iterating it
        #: yields per-request views.
        self.requests: RequestBatch = (
            requests
            if isinstance(requests, RequestBatch)
            else RequestBatch.from_requests(requests)
        )
        self.config = config
        if deadlines is not None:
            arr = np.asarray(deadlines, dtype=np.float64)
            if arr.shape != (len(self.requests),):
                raise ValueError(
                    f"deadlines must have shape ({len(self.requests)},), "
                    f"got {arr.shape}"
                )
            if (arr <= 0).any():
                raise ValueError("deadlines must be positive")
            self._deadlines = arr.copy()
            self._deadlines.flags.writeable = False
        else:
            self._deadlines = None

        self._validate_batch(self.requests, network.n, app.n_services)

    @staticmethod
    def _validate_batch(batch: RequestBatch, n: int, n_services: int) -> None:
        """Home/service range checks, reporting the first bad request."""
        bad_home = (batch.homes < 0) | (batch.homes >= n)
        bad_svc = (batch.chains < 0) | (batch.chains >= n_services)
        if not (bad_home.any() or bad_svc.any()):
            return
        first_home = (
            int(np.argmax(bad_home)) if bad_home.any() else len(batch)
        )
        if bad_svc.any():
            flat = int(np.argmax(bad_svc))
            svc_req = int(
                np.searchsorted(batch.chain_offsets, flat, side="right") - 1
            )
        else:
            flat = -1
            svc_req = len(batch)
        if first_home <= svc_req:
            raise IndexError(
                f"request {int(batch.index[first_home])} home "
                f"{int(batch.homes[first_home])} outside network of size {n}"
            )
        raise IndexError(
            f"request {int(batch.index[svc_req])} references unknown "
            f"service {int(batch.chains[flat])}"
        )

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def n_servers(self) -> int:
        return self.network.n

    @property
    def n_services(self) -> int:
        return self.app.n_services

    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def cloud(self) -> int:
        """Index of the virtual cloud node in the extended arrays."""
        return self.n_servers

    # ------------------------------------------------------------------
    # precomputed arrays (cached)
    # ------------------------------------------------------------------
    @cached_property
    def inv_rate(self) -> np.ndarray:
        """Extended ``(n+1, n+1)`` transfer coefficients ``Σ 1/b``.

        Row/column ``n`` is the cloud: every edge↔cloud transfer costs
        ``cloud_inv_rate`` seconds per GB; cloud↔cloud is free.
        """
        n = self.n_servers
        base = self.network.paths.inv_rate
        ext = np.full((n + 1, n + 1), self.config.cloud_inv_rate, dtype=np.float64)
        ext[:n, :n] = base
        ext[n, n] = 0.0
        ext.flags.writeable = False
        return ext

    @cached_property
    def compute_ext(self) -> np.ndarray:
        """Server compute vector extended with the cloud node."""
        ext = np.concatenate(
            [self.network.compute, [self.config.cloud_compute]]
        )
        ext.flags.writeable = False
        return ext

    @cached_property
    def service_compute(self) -> np.ndarray:
        """``q(m_i)`` vector."""
        return self.app.compute_vector()

    @cached_property
    def service_storage(self) -> np.ndarray:
        """``φ(m_i)`` vector."""
        return self.app.storage_vector()

    @cached_property
    def service_cost(self) -> np.ndarray:
        """``κ(m_i)`` vector."""
        return self.app.cost_vector()

    @cached_property
    def server_storage(self) -> np.ndarray:
        """``Φ(v_k)`` vector."""
        return self.network.storage

    @cached_property
    def homes(self) -> np.ndarray:
        """``f(u_h)`` home-server vector, shape ``(H,)``."""
        return self.requests.homes.copy()

    @cached_property
    def chain_lengths(self) -> np.ndarray:
        return self.requests.lengths.copy()

    @cached_property
    def max_chain(self) -> int:
        return int(self.chain_lengths.max())

    @cached_property
    def chain_matrix(self) -> np.ndarray:
        """``(H, Lmax)`` padded service-index matrix; −1 = past chain end."""
        mat = self.requests.padded_chain_matrix()
        mat.flags.writeable = False
        return mat

    @cached_property
    def chain_mask(self) -> np.ndarray:
        """``(H, Lmax)`` bool mask of valid positions."""
        mask = self.chain_matrix >= 0
        mask.flags.writeable = False
        return mask

    @cached_property
    def edge_data_matrix(self) -> np.ndarray:
        """``(H, Lmax−1)`` per-edge data flows (0 past chain end)."""
        mat = self.requests.padded_edge_matrix()
        mat.flags.writeable = False
        return mat

    @cached_property
    def data_in(self) -> np.ndarray:
        return self.requests.data_in.copy()

    @cached_property
    def data_out(self) -> np.ndarray:
        return self.requests.data_out.copy()

    @cached_property
    def inflow_matrix(self) -> np.ndarray:
        """``(H, Lmax)`` data entering each chain position (star model's r)."""
        H, L = self.n_requests, self.max_chain
        batch = self.requests
        mat = np.zeros((H, L), dtype=np.float64)
        rows = np.repeat(np.arange(H), batch.lengths)
        cols = np.arange(batch.chains.size) - np.repeat(
            batch.chain_offsets[:-1], batch.lengths
        )
        mat[rows, cols] = batch.inflow_flat()
        mat.flags.writeable = False
        return mat

    @cached_property
    def demand_counts(self) -> np.ndarray:
        """``(S, N)`` counts ``|U^{m_i}_{v_k}|`` (Alg. 2 lines 1-3)."""
        return self.requests.demand_counts(self.n_services, self.n_servers)

    @cached_property
    def demand_data(self) -> np.ndarray:
        """``(S, N)`` inbound data volumes per service/home pair."""
        return self.requests.demand_data(self.n_services, self.n_servers)

    @cached_property
    def order_factor(self) -> np.ndarray:
        """``(S, N)`` chain-order factors ``R^{m_i}_{v_k}`` (Def. 9).

        ``R = (3·u_f + 2·u_l + u_m) / |U^{m_i}_{v_k}|`` with u_f/u_l/u_m
        the counts of requests homed at ``v_k`` in which ``m_i`` appears
        first / last / in the middle of the chain (a 1-service chain
        counts as first); zero where no demand exists.  One weighted
        ``np.add.at`` over the flat chain column: the weights are small
        integers, so the sums are exact in any order.
        """
        batch = self.requests
        offsets = batch.chain_offsets
        weights = np.ones(batch.chains.size, dtype=np.float64)
        weights[offsets[1:] - 1] = 2.0
        # written last: a 1-service chain's only position is its first
        weights[offsets[:-1]] = 3.0
        weighted = np.zeros((self.n_services, self.n_servers), dtype=np.float64)
        np.add.at(
            weighted, (batch.chains, np.repeat(batch.homes, batch.lengths)), weights
        )
        counts = self.demand_counts
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(counts > 0, weighted / np.maximum(counts, 1), 0.0)
        r.flags.writeable = False
        return r

    @cached_property
    def requested_services(self) -> np.ndarray:
        """Sorted indices of services that appear in at least one chain."""
        return np.unique(self.chain_matrix[self.chain_matrix >= 0])

    @cached_property
    def deadlines(self) -> np.ndarray:
        """Per-request deadline vector ``D^max_h``.

        The explicit per-request vector passed at construction wins;
        otherwise the scalar ``config.deadline`` is broadcast.
        """
        if self._deadlines is not None:
            return self._deadlines
        return np.full(self.n_requests, self.config.deadline, dtype=np.float64)

    # ------------------------------------------------------------------
    def hosting_servers(self, service: int) -> np.ndarray:
        """``V(m_i)``: home servers of requests whose chain contains ``m_i``."""
        return np.nonzero(self.demand_counts[service] > 0)[0]

    def with_config(self, **kwargs) -> "ProblemInstance":
        """Clone with updated :class:`ProblemConfig` fields."""
        return ProblemInstance(
            self.network,
            self.app,
            self.requests,
            self.config.with_(**kwargs),
            deadlines=self._deadlines,
        )

    def with_requests(self, requests: Sequence[UserRequest]) -> "ProblemInstance":
        """Clone with a different request set (online re-provisioning).

        Per-request deadlines are dropped (they are tied to the old
        request set); the scalar config deadline still applies.
        """
        return ProblemInstance(self.network, self.app, requests, self.config)

    def with_deadlines(self, deadlines: Sequence[float]) -> "ProblemInstance":
        """Clone with explicit per-request deadlines (Eq. 4's D^max_h)."""
        return ProblemInstance(
            self.network, self.app, self.requests, self.config, deadlines=deadlines
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProblemInstance(servers={self.n_servers}, services={self.n_services}, "
            f"requests={self.n_requests}, model={self.config.latency_model!r})"
        )
