"""Decision structures: Placement (x) and Routing (y).

:class:`Placement` wraps the binary deployment matrix ``x(i, k)``
(services × edge servers, Def. 3).  :class:`Routing` materializes the
service decision ``y(h, i, k)`` as a per-request assignment matrix: entry
``(h, j)`` is the (extended) node index serving chain position ``j`` of
request ``h`` — either an edge server hosting the instance, or the cloud
index for fallback.  The padded-matrix form keeps whole-workload latency
evaluation fully vectorized.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.model.instance import ProblemInstance
from repro.utils.validation import check_index


class Placement:
    """Binary deployment decision ``x(i, k)`` over edge servers.

    The matrix never includes the cloud column: the cloud hosts every
    microservice implicitly (initial provisioning in the cloud data
    center, paper §III.A).
    """

    def __init__(self, x: np.ndarray):
        x = np.asarray(x, dtype=bool)
        if x.ndim != 2:
            raise ValueError(f"placement matrix must be 2-D, got shape {x.shape}")
        self._x = x.copy()

    # -- constructors ---------------------------------------------------
    @classmethod
    def empty(cls, instance: ProblemInstance) -> "Placement":
        return cls(np.zeros((instance.n_services, instance.n_servers), dtype=bool))

    @classmethod
    def full(cls, instance: ProblemInstance) -> "Placement":
        """Every requested service on every server (upper-bound placement)."""
        x = np.zeros((instance.n_services, instance.n_servers), dtype=bool)
        x[instance.requested_services, :] = True
        return cls(x)

    @classmethod
    def from_pairs(
        cls, instance: ProblemInstance, pairs: Iterable[tuple[int, int]]
    ) -> "Placement":
        x = np.zeros((instance.n_services, instance.n_servers), dtype=bool)
        for i, k in pairs:
            check_index("service", i, instance.n_services)
            check_index("server", k, instance.n_servers)
            x[i, k] = True
        return cls(x)

    # -- accessors --------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """Read-only view of the boolean matrix."""
        view = self._x.view()
        view.flags.writeable = False
        return view

    @property
    def n_services(self) -> int:
        return self._x.shape[0]

    @property
    def n_servers(self) -> int:
        return self._x.shape[1]

    def hosts(self, service: int) -> np.ndarray:
        """Edge servers hosting an instance of ``m_i`` (may be empty)."""
        return np.nonzero(self._x[service])[0]

    def instance_count(self, service: int) -> int:
        return int(self._x[service].sum())

    @property
    def total_instances(self) -> int:
        return int(self._x.sum())

    def services_on(self, server: int) -> np.ndarray:
        """Services deployed on ``v_k``."""
        return np.nonzero(self._x[:, server])[0]

    def has(self, service: int, server: int) -> bool:
        return bool(self._x[service, server])

    def pairs(self) -> list[tuple[int, int]]:
        """All deployed (service, server) pairs, sorted."""
        idx = np.argwhere(self._x)
        return [(int(i), int(k)) for i, k in idx]

    # -- mutation (used by the local-search stages) ----------------------
    def add(self, service: int, server: int) -> None:
        self._x[service, server] = True

    def remove(self, service: int, server: int) -> None:
        if not self._x[service, server]:
            raise ValueError(f"no instance of service {service} on server {server}")
        self._x[service, server] = False

    def copy(self) -> "Placement":
        return Placement(self._x)

    def __eq__(self, other) -> bool:
        return isinstance(other, Placement) and np.array_equal(self._x, other._x)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Placement(instances={self.total_instances})"


class Routing:
    """Per-request chain assignments (the service decision ``y``).

    ``assignment[h, j]`` is the extended node index (edge server or
    ``instance.cloud``) serving chain position ``j`` of request ``h``;
    positions past a request's chain end hold −1.
    """

    def __init__(self, instance: ProblemInstance, assignment: np.ndarray):
        assignment = np.asarray(assignment, dtype=np.int64)
        H, L = instance.n_requests, instance.max_chain
        if assignment.shape != (H, L):
            raise ValueError(
                f"assignment must have shape ({H}, {L}), got {assignment.shape}"
            )
        mask = instance.chain_mask
        valid = assignment[mask]
        if valid.size and (valid.min() < 0 or valid.max() > instance.cloud):
            raise ValueError("assignment contains out-of-range node indices")
        if (assignment[~mask] != -1).any():
            raise ValueError("padding positions must hold -1")
        self.instance = instance
        self._a = assignment.copy()

    @classmethod
    def from_lists(
        cls, instance: ProblemInstance, per_request: Sequence[Sequence[int]]
    ) -> "Routing":
        H, L = instance.n_requests, instance.max_chain
        a = np.full((H, L), -1, dtype=np.int64)
        if len(per_request) != H:
            raise ValueError(
                f"expected {H} assignment lists, got {len(per_request)}"
            )
        lengths = instance.chain_lengths
        for h, nodes in enumerate(per_request):
            if len(nodes) != lengths[h]:
                raise ValueError(
                    f"request {h}: expected {lengths[h]} nodes, "
                    f"got {len(nodes)}"
                )
            a[h, : len(nodes)] = nodes
        return cls(instance, a)

    @property
    def assignment(self) -> np.ndarray:
        view = self._a.view()
        view.flags.writeable = False
        return view

    def nodes_for(self, h: int) -> np.ndarray:
        """Assigned node sequence for request ``h`` (unpadded)."""
        check_index("h", h, self.instance.n_requests)
        return self._a[h, : self.instance.chain_lengths[h]].copy()

    def uses_cloud(self) -> np.ndarray:
        """Boolean per request: does any position fall back to the cloud?"""
        cloud = self.instance.cloud
        return ((self._a == cloud) & self.instance.chain_mask).any(axis=1)

    def served_pairs(self) -> set[tuple[int, int]]:
        """All (service, edge-server) pairs actually serving traffic.

        Cloud assignments are excluded; this is the support the
        assignment places on ``y(h, i, k)`` with ``k`` an edge server.
        """
        mask = self.instance.chain_mask & (self._a < self.instance.cloud) & (self._a >= 0)
        services = self.instance.chain_matrix[mask]
        nodes = self._a[mask]
        return {(int(i), int(k)) for i, k in zip(services, nodes)}

    def copy(self) -> "Routing":
        return Routing(self.instance, self._a)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Routing(requests={self.instance.n_requests})"
