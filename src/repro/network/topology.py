"""Edge network topology model (paper §III.A).

An :class:`EdgeNetwork` is a weighted undirected graph ``G(V, L)`` whose
vertices are :class:`EdgeServer` objects and whose links carry a raw
bandwidth ``B(l)`` plus the physical-layer parameters (transmission power
``γ``, channel gain ``g`` and noise power ``N``) that determine the
effective Shannon transmission rate

    b(l) = B(l) · log2(1 + γ·g / N)        (paper §III.C)

The network exposes dense numpy matrices for the quantities the
algorithms consume in hot loops (direct rates, adjacency) and lazily
builds a :class:`repro.network.paths.PathTable` for all-pairs routing
quantities (hop counts, virtual-link rates, path reconstruction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.utils.validation import check_index, check_positive


@dataclass(frozen=True)
class EdgeServer:
    """A single edge server ``v_k``.

    Attributes
    ----------
    index:
        Position in the network's server list (the ``k`` in ``v_k``).
    compute:
        Computing capability ``c(v_k)`` in GFLOP/s.
    storage:
        Storage capacity ``Φ(v_k)`` in abstract storage units.
    position:
        Planar coordinates used by topology generators and the replay's
        region map; purely geometric, never consumed by the optimizer itself.
    name:
        Human-readable label.
    """

    index: int
    compute: float
    storage: float
    position: tuple[float, float] = (0.0, 0.0)
    name: str = ""

    def __post_init__(self) -> None:
        check_positive("compute", self.compute)
        check_positive("storage", self.storage)

    @property
    def label(self) -> str:
        return self.name or f"v{self.index}"


@dataclass(frozen=True)
class Link:
    """An undirected physical link ``l_{k,k'}`` with Shannon-rate parameters."""

    u: int
    v: int
    bandwidth: float  # B(l) in GB/s
    gain: float = 1.0  # channel gain g
    power: float = 1.0  # transmission power γ
    noise: float = 1.0  # noise power N

    def __post_init__(self) -> None:
        check_positive("bandwidth", self.bandwidth)
        check_positive("gain", self.gain)
        check_positive("power", self.power)
        check_positive("noise", self.noise)
        if self.u == self.v:
            raise ValueError(f"self-loop link on node {self.u}")

    @property
    def rate(self) -> float:
        """Effective transmission rate ``b(l) = B·log2(1 + γ·g/N)`` (GB/s)."""
        return self.bandwidth * np.log2(1.0 + self.power * self.gain / self.noise)

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


class EdgeNetwork:
    """Substrate edge network ``G(V, L)``.

    Parameters
    ----------
    servers:
        Edge servers; their ``index`` attributes must equal their position.
    links:
        Physical links between server indices.  Duplicate (u, v) pairs are
        rejected; the graph is undirected.

    Notes
    -----
    The class is immutable after construction — algorithms never mutate
    the substrate, only placements.  Derived all-pairs quantities are
    computed once and cached (see :attr:`paths`).
    """

    def __init__(self, servers: Sequence[EdgeServer], links: Iterable[Link]):
        self.servers: tuple[EdgeServer, ...] = tuple(servers)
        if not self.servers:
            raise ValueError("network must contain at least one server")
        for pos, server in enumerate(self.servers):
            if server.index != pos:
                raise ValueError(
                    f"server at position {pos} has index {server.index}; "
                    "indices must be consecutive from 0"
                )
        n = len(self.servers)
        self.links: tuple[Link, ...] = tuple(links)

        rate = np.zeros((n, n), dtype=np.float64)
        bandwidth = np.zeros((n, n), dtype=np.float64)
        seen: set[tuple[int, int]] = set()
        for link in self.links:
            check_index("link endpoint", link.u, n)
            check_index("link endpoint", link.v, n)
            key = link.endpoints
            if key in seen:
                raise ValueError(f"duplicate link between {key[0]} and {key[1]}")
            seen.add(key)
            r = link.rate
            rate[link.u, link.v] = rate[link.v, link.u] = r
            bandwidth[link.u, link.v] = bandwidth[link.v, link.u] = link.bandwidth
        self._rate = rate
        self._bandwidth = bandwidth
        self._paths = None  # lazily built PathTable

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of edge servers ``|V|``."""
        return len(self.servers)

    @property
    def rate_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` matrix of direct-link Shannon rates ``b(l)``.

        Zero entries mean "no direct link".  Read-only view.
        """
        view = self._rate.view()
        view.flags.writeable = False
        return view

    @property
    def bandwidth_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` matrix of raw bandwidths ``B(l)``; read-only."""
        view = self._bandwidth.view()
        view.flags.writeable = False
        return view

    @property
    def compute(self) -> np.ndarray:
        """Vector of server computing capabilities ``c(v_k)``."""
        return np.array([s.compute for s in self.servers], dtype=np.float64)

    @property
    def storage(self) -> np.ndarray:
        """Vector of server storage capacities ``Φ(v_k)``."""
        return np.array([s.storage for s in self.servers], dtype=np.float64)

    @property
    def positions(self) -> np.ndarray:
        """``(n, 2)`` array of server coordinates."""
        return np.array([s.position for s in self.servers], dtype=np.float64)

    def neighbors(self, k: int) -> np.ndarray:
        """Indices of servers directly linked to ``v_k``."""
        check_index("k", k, self.n)
        return np.nonzero(self._rate[k] > 0.0)[0]

    def degree(self, k: int) -> int:
        """Number of direct connections ``H(v_k)`` (Theorem 1's quantity)."""
        return int(np.count_nonzero(self._rate[k] > 0.0))

    @property
    def degrees(self) -> np.ndarray:
        """Vector of node degrees."""
        return np.count_nonzero(self._rate > 0.0, axis=1)

    # ------------------------------------------------------------------
    # derived routing quantities
    # ------------------------------------------------------------------
    @property
    def paths(self):
        """All-pairs routing table (lazily constructed, cached)."""
        if self._paths is None:
            from repro.network.paths import PathTable

            self._paths = PathTable.from_network(self)
        return self._paths

    @property
    def is_connected(self) -> bool:
        """Whether every server can reach every other server."""
        return bool(np.all(np.isfinite(self.paths.hops + np.eye(self.n))))

    def transfer_time(self, src: int, dst: int, data: float) -> float:
        """Seconds to move ``data`` GB from ``src`` to ``dst`` along ``π*``.

        Zero when ``src == dst`` (paper's indicator ``1_[v_k != v_s]``).
        """
        if data < 0:
            raise ValueError(f"data must be non-negative, got {data}")
        return float(data * self.paths.inv_rate[src, dst])

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EdgeNetwork(n={self.n}, links={len(self.links)})"
