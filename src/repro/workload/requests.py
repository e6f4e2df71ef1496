"""User request model (paper §III.A).

A :class:`UserRequest` ``u_h`` is a directed chain of microservices with:

* ``home`` — the edge server ``v_k`` the user is associated with
  (``f(u_h) = k``; the set ``U_k`` groups requests by home server),
* ``chain`` — the microservice indices ``M_h`` in invocation order,
* ``edge_data`` — the data flow ``r_{m_i→m_j}`` (GB) on each chain edge,
* ``data_in`` / ``data_out`` — upload ``r_in^h`` and result ``r_out^h``
  volumes for the ``d_in`` / ``d_out`` terms of Eq. (2).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from repro.utils.validation import check_non_negative


def _readonly(arr: np.ndarray) -> np.ndarray:
    """Freeze ``arr`` in place and return it."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class UserRequest:
    """A single user service request ``u_h``."""

    index: int
    home: int
    chain: tuple[int, ...]
    data_in: float
    data_out: float
    edge_data: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.chain:
            raise ValueError("request chain must contain at least one microservice")
        if len(set(self.chain)) != len(self.chain):
            raise ValueError(f"request chain has repeated services: {self.chain}")
        if len(self.edge_data) != len(self.chain) - 1:
            raise ValueError(
                f"edge_data length {len(self.edge_data)} != chain edges "
                f"{len(self.chain) - 1}"
            )
        check_non_negative("data_in", self.data_in)
        check_non_negative("data_out", self.data_out)
        for d in self.edge_data:
            check_non_negative("edge_data entry", d)

    # ------------------------------------------------------------------
    @property
    def length(self) -> int:
        """Number of microservices in the chain ``|M_h|``."""
        return len(self.chain)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Dependency edges ``E_h`` in order."""
        return tuple(zip(self.chain, self.chain[1:]))

    def uses(self, service: int) -> bool:
        """Whether microservice ``m_i`` appears in this request's chain."""
        return service in self.chain

    def position_of(self, service: int) -> int:
        """Chain position of ``service`` (raises ``ValueError`` if absent)."""
        return self.chain.index(service)

    def data_into(self, service: int) -> float:
        """Data volume entering ``service`` within this chain.

        For the first microservice this is the user's upload ``r_in^h``;
        for later positions it is the preceding edge's flow.
        """
        pos = self.position_of(service)
        if pos == 0:
            return self.data_in
        return self.edge_data[pos - 1]


class RequestBatch(SequenceABC):
    """Columnar (struct-of-arrays) collection of user requests.

    Stores the whole workload in six flat NumPy arrays instead of
    ``n_users`` Python objects, so slot-scale request generation and the
    vectorized solver/replay paths never materialize per-request
    objects.  Chains use CSR layout: request ``h``'s services are
    ``chains[chain_offsets[h]:chain_offsets[h+1]]`` and its per-edge
    data flows are the matching slice of ``edge_data`` at offset
    ``chain_offsets[h] - h`` (each request has ``length - 1`` edges).

    The batch is an immutable :class:`collections.abc.Sequence` of
    :class:`UserRequest` **views**, created lazily and memoized, so the
    per-request consumers (serialization, the ILP formulation, the
    reference routing kernel, the baselines that draw per chain
    position) index and iterate it while columnar consumers read the
    arrays directly.
    """

    __slots__ = (
        "index",
        "homes",
        "chains",
        "chain_offsets",
        "data_in",
        "data_out",
        "edge_data",
        "_lengths",
        "_views",
    )

    def __init__(
        self,
        index: np.ndarray,
        homes: np.ndarray,
        chains: np.ndarray,
        chain_offsets: np.ndarray,
        data_in: np.ndarray,
        data_out: np.ndarray,
        edge_data: np.ndarray,
        validate: bool = True,
    ):
        self.index = _readonly(np.asarray(index, dtype=np.int64))
        self.homes = _readonly(np.asarray(homes, dtype=np.int64))
        self.chains = _readonly(np.asarray(chains, dtype=np.int64))
        self.chain_offsets = _readonly(
            np.asarray(chain_offsets, dtype=np.int64)
        )
        self.data_in = _readonly(np.asarray(data_in, dtype=np.float64))
        self.data_out = _readonly(np.asarray(data_out, dtype=np.float64))
        self.edge_data = _readonly(np.asarray(edge_data, dtype=np.float64))
        self._lengths = _readonly(np.diff(self.chain_offsets))
        self._views: dict[int, UserRequest] = {}
        if validate:
            self._validate()

    def _validate(self) -> None:
        n = self.n_requests
        if self.chain_offsets.shape != (n + 1,) or (
            n and self.chain_offsets[0] != 0
        ):
            raise ValueError(
                f"chain_offsets must be ({n + 1},) starting at 0, got "
                f"shape {self.chain_offsets.shape}"
            )
        for name, arr in (
            ("index", self.index),
            ("data_in", self.data_in),
            ("data_out", self.data_out),
        ):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if n == 0:
            return
        if self.chains.shape != (int(self.chain_offsets[-1]),):
            raise ValueError(
                f"chains length {self.chains.size} does not match "
                f"chain_offsets end {int(self.chain_offsets[-1])}"
            )
        if (self._lengths < 1).any():
            raise ValueError("request chain must contain at least one microservice")
        if self.edge_data.shape != (self.chains.size - n,):
            raise ValueError(
                f"edge_data length {self.edge_data.size} != chain edges "
                f"{self.chains.size - n}"
            )
        rows = np.repeat(np.arange(n), self._lengths)
        order = np.lexsort((self.chains, rows))
        same_row = rows[order][1:] == rows[order][:-1]
        dup = same_row & (self.chains[order][1:] == self.chains[order][:-1])
        if dup.any():
            h = int(rows[order][1:][np.argmax(dup)])
            lo, hi = int(self.chain_offsets[h]), int(self.chain_offsets[h + 1])
            chain = tuple(self.chains[lo:hi].tolist())
            raise ValueError(f"request chain has repeated services: {chain}")
        for name, arr in (
            ("data_in", self.data_in),
            ("data_out", self.data_out),
            ("edge_data", self.edge_data),
        ):
            if arr.size and not np.isfinite(arr).all():
                h = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise ValueError(
                    f"{name} must be finite, got {arr[h]!r} at position {h}"
                )
        if self.data_in.size:
            check_non_negative("data_in", float(self.data_in.min()))
            check_non_negative("data_out", float(self.data_out.min()))
        if self.edge_data.size:
            check_non_negative("edge_data entry", float(self.edge_data.min()))

    # -- construction ---------------------------------------------------
    @classmethod
    def from_requests(
        cls, requests: Iterable[UserRequest]
    ) -> "RequestBatch":
        """Build a columnar batch from per-request objects."""
        reqs = list(requests)
        n = len(reqs)
        offsets = np.zeros(n + 1, dtype=np.int64)
        for h, r in enumerate(reqs):
            offsets[h + 1] = offsets[h] + r.length
        chains = np.empty(int(offsets[-1]), dtype=np.int64)
        edge = np.empty(int(offsets[-1]) - n, dtype=np.float64)
        pos = 0
        for h, r in enumerate(reqs):
            chains[offsets[h] : offsets[h + 1]] = r.chain
            if r.edge_data:
                edge[pos : pos + len(r.edge_data)] = r.edge_data
            pos += len(r.edge_data)
        return cls(
            index=np.array([r.index for r in reqs], dtype=np.int64),
            homes=np.array([r.home for r in reqs], dtype=np.int64),
            chains=chains,
            chain_offsets=offsets,
            data_in=np.array([r.data_in for r in reqs], dtype=np.float64),
            data_out=np.array([r.data_out for r in reqs], dtype=np.float64),
            edge_data=edge,
        )

    @classmethod
    def concat(cls, batches: Sequence["RequestBatch"]) -> "RequestBatch":
        """Stitch a sequence of batches into one, renumbering ``index``.

        The canonical consumer is streaming generation
        (:func:`repro.workload.users.generate_request_windows`): windows
        are produced one at a time with bounded memory and concatenated
        — or fed to per-shard replay directly — instead of ad-hoc list
        assembly in workload callers.  Request order is the batch order;
        ``index`` is renumbered consecutively so the result is a valid
        standalone workload.  CSR offsets are re-based, all other
        columns concatenate verbatim, and the merged batch re-validates.
        """
        batches = list(batches)
        if not batches:
            raise ValueError("concat requires at least one batch")
        for b in batches:
            if not isinstance(b, RequestBatch):
                raise TypeError(
                    f"concat expects RequestBatch items, got {type(b).__name__}"
                )
        sizes = np.array([b.n_requests for b in batches], dtype=np.int64)
        n = int(sizes.sum())
        offsets = np.zeros(n + 1, dtype=np.int64)
        pos = 0
        base = 0
        for b in batches:
            k = b.n_requests
            offsets[pos + 1 : pos + k + 1] = b.chain_offsets[1:] + base
            base += int(b.chain_offsets[-1])
            pos += k
        return cls(
            index=np.arange(n, dtype=np.int64),
            homes=np.concatenate([b.homes for b in batches]),
            chains=np.concatenate([b.chains for b in batches]),
            chain_offsets=offsets,
            data_in=np.concatenate([b.data_in for b in batches]),
            data_out=np.concatenate([b.data_out for b in batches]),
            edge_data=np.concatenate([b.edge_data for b in batches]),
        )

    # -- sizes ----------------------------------------------------------
    @property
    def n_requests(self) -> int:
        """Number of requests in the batch."""
        return int(self.homes.size)

    @property
    def lengths(self) -> np.ndarray:
        """Per-request chain lengths ``|M_h|`` (read-only)."""
        return self._lengths

    @property
    def edge_offsets(self) -> np.ndarray:
        """CSR offsets into :attr:`edge_data` (request ``h`` owns
        ``edge_data[edge_offsets[h]:edge_offsets[h+1]]``)."""
        return self.chain_offsets - np.arange(self.n_requests + 1)

    # -- sequence protocol ----------------------------------------------
    def __len__(self) -> int:
        return self.n_requests

    def __getitem__(
        self, item: Union[int, slice]
    ) -> Union[UserRequest, list[UserRequest]]:
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(self.n_requests))]
        h = int(item)
        if h < 0:
            h += self.n_requests
        if not (0 <= h < self.n_requests):
            raise IndexError(f"request index {item} out of range")
        view = self._views.get(h)
        if view is None:
            lo = int(self.chain_offsets[h])
            hi = int(self.chain_offsets[h + 1])
            view = UserRequest(
                index=int(self.index[h]),
                home=int(self.homes[h]),
                chain=tuple(self.chains[lo:hi].tolist()),
                data_in=float(self.data_in[h]),
                data_out=float(self.data_out[h]),
                edge_data=tuple(
                    self.edge_data[lo - h : hi - h - 1].tolist()
                ),
            )
            self._views[h] = view
        return view

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RequestBatch(requests={self.n_requests}, "
            f"invocations={self.chains.size})"
        )

    # -- columnar builders (bit-identical to the per-request loops) -----
    def padded_chain_matrix(self) -> np.ndarray:
        """``(H, Lmax)`` service-index matrix, −1 past each chain end."""
        n = self.n_requests
        width = int(self._lengths.max()) if n else 1
        mat = np.full((n, width), -1, dtype=np.int64)
        rows = np.repeat(np.arange(n), self._lengths)
        cols = np.arange(self.chains.size) - np.repeat(
            self.chain_offsets[:-1], self._lengths
        )
        mat[rows, cols] = self.chains
        return mat

    def padded_edge_matrix(self) -> np.ndarray:
        """``(H, max(Lmax−1, 1))`` per-edge data flows, 0 past chain end."""
        n = self.n_requests
        width = int(self._lengths.max()) if n else 1
        mat = np.zeros((n, max(width - 1, 1)), dtype=np.float64)
        e_len = self._lengths - 1
        rows = np.repeat(np.arange(n), e_len)
        cols = np.arange(self.edge_data.size) - np.repeat(
            self.edge_offsets[:-1], e_len
        )
        mat[rows, cols] = self.edge_data
        return mat

    def inflow_flat(self) -> np.ndarray:
        """Data entering each chain position, CSR-flat (upload first)."""
        flat = np.empty(self.chains.size, dtype=np.float64)
        firsts = np.zeros(self.chains.size, dtype=bool)
        firsts[self.chain_offsets[:-1]] = True
        flat[self.chain_offsets[:-1]] = self.data_in
        flat[~firsts] = self.edge_data
        return flat

    def demand_counts(self, n_services: int, n_servers: int) -> np.ndarray:
        """``(S, N)`` request counts per (service, home) pair."""
        counts = np.zeros((n_services, n_servers), dtype=np.int64)
        homes_rep = np.repeat(self.homes, self._lengths)
        np.add.at(counts, (self.chains, homes_rep), 1)
        return counts

    def demand_data(self, n_services: int, n_servers: int) -> np.ndarray:
        """``(S, N)`` inbound data volume per (service, home) pair.

        ``np.add.at`` applies the unbuffered adds in flat request-major
        order — the same accumulation order as the per-request loop, so
        the floating-point result is bit-identical.
        """
        data = np.zeros((n_services, n_servers), dtype=np.float64)
        homes_rep = np.repeat(self.homes, self._lengths)
        np.add.at(data, (self.chains, homes_rep), self.inflow_flat())
        return data


def requests_by_server(
    requests: Sequence[UserRequest], n_servers: int
) -> list[list[UserRequest]]:
    """Group requests by home server: the paper's ``U_k`` sets."""
    groups: list[list[UserRequest]] = [[] for _ in range(n_servers)]
    for req in requests:
        if not (0 <= req.home < n_servers):
            raise IndexError(
                f"request {req.index} home {req.home} outside [0, {n_servers})"
            )
        groups[req.home].append(req)
    return groups


def services_in_requests(requests: Iterable[UserRequest]) -> list[int]:
    """Sorted set of microservices referenced by any request."""
    return sorted({s for req in requests for s in req.chain})


def demand_matrix(
    requests: Sequence[UserRequest], n_services: int, n_servers: int
) -> np.ndarray:
    """``(n_services, n_servers)`` count matrix ``|U^{m_i}_{v_k}|``.

    Entry ``(i, k)`` is the number of requests homed at ``v_k`` whose
    chain contains ``m_i`` — the quantity Alg. 2 computes in lines 1-3.
    """
    counts = np.zeros((n_services, n_servers), dtype=np.int64)
    for req in requests:
        for svc in req.chain:
            counts[svc, req.home] += 1
    return counts


def data_demand_matrix(
    requests: Sequence[UserRequest], n_services: int, n_servers: int
) -> np.ndarray:
    """``(n_services, n_servers)`` total inbound data per service/home pair.

    Entry ``(i, k)`` sums, over requests homed at ``v_k``, the data volume
    entering ``m_i`` in each chain — the ``r_i`` weights used by the
    proactive factor (Def. 5) and instance contribution (Def. 7).
    """
    data = np.zeros((n_services, n_servers), dtype=np.float64)
    for req in requests:
        for svc in req.chain:
            data[svc, req.home] += req.data_into(svc)
    return data
