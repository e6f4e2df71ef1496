"""Edge-network topology generators matching the paper's settings (§V.A).

The evaluation places base stations "near the National Stadium, Beijing"
with edge servers drawing computing power from [5, 20] GFLOPs, storage
from [4, 8] units and link bandwidths from [20, 80] GB/s.  The main
generator, :func:`stadium_topology`, samples coordinates around the
stadium footprint and connects geographically close stations, then adds
a spanning backbone so the network is always connected.  Additional
regular topologies (ring, grid, line, star) and the classic Waxman
random graph are provided for tests and ablations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.network.topology import EdgeNetwork, EdgeServer, Link
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_probability

#: Approximate side length (km) of the area around the National Stadium
#: used for base-station placement.  Purely a coordinate scale.
STADIUM_EXTENT_KM = 4.0

#: Paper §V.A parameter ranges.
COMPUTE_RANGE = (5.0, 20.0)  # GFLOP/s
STORAGE_RANGE = (4.0, 8.0)  # storage units
BANDWIDTH_RANGE = (20.0, 80.0)  # GB/s


def _sample_servers(
    n: int,
    positions: np.ndarray,
    rng: np.random.Generator,
    compute_range: tuple[float, float],
    storage_range: tuple[float, float],
) -> list[EdgeServer]:
    compute = rng.uniform(*compute_range, size=n)
    storage = rng.uniform(*storage_range, size=n)
    return [
        EdgeServer(
            index=k,
            compute=float(compute[k]),
            storage=float(storage[k]),
            position=(float(positions[k, 0]), float(positions[k, 1])),
            name=f"bs{k}",
        )
        for k in range(n)
    ]


def _link(
    u: int,
    v: int,
    rng: np.random.Generator,
    bandwidth_range: tuple[float, float],
    distance: float = 1.0,
) -> Link:
    """Sample one link; channel gain decays with distance (path loss)."""
    bandwidth = float(rng.uniform(*bandwidth_range))
    # Free-space-like path loss with exponent 2, clamped so that even the
    # longest in-extent link keeps a usable SNR.
    gain = float(1.0 / max(distance, 0.25) ** 2)
    return Link(u=u, v=v, bandwidth=bandwidth, gain=gain, power=4.0, noise=1.0)


def _ensure_connected(
    n: int,
    edges: set[tuple[int, int]],
    positions: np.ndarray,
) -> set[tuple[int, int]]:
    """Add minimum-distance edges until the edge set forms one component."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for u, v in edges:
        union(u, v)
    # Repeatedly connect the two closest nodes in different components.
    while len({find(i) for i in range(n)}) > 1:
        best: Optional[tuple[float, int, int]] = None
        for i in range(n):
            for j in range(i + 1, n):
                if find(i) == find(j):
                    continue
                d = float(np.hypot(*(positions[i] - positions[j])))
                if best is None or d < best[0]:
                    best = (d, i, j)
        assert best is not None
        _, i, j = best
        edges.add((min(i, j), max(i, j)))
        union(i, j)
    return edges


def random_geometric_topology(
    n: int,
    radius: float,
    seed: SeedLike = None,
    extent: float = STADIUM_EXTENT_KM,
    compute_range: tuple[float, float] = COMPUTE_RANGE,
    storage_range: tuple[float, float] = STORAGE_RANGE,
    bandwidth_range: tuple[float, float] = BANDWIDTH_RANGE,
) -> EdgeNetwork:
    """Random geometric graph on an ``extent × extent`` square.

    Nodes within ``radius`` of each other are linked; a minimum spanning
    set of extra links guarantees connectivity.
    """
    check_positive("n", n)
    check_positive("radius", radius)
    rng = as_generator(seed)
    positions = rng.uniform(0.0, extent, size=(n, 2))
    diffs = positions[:, None, :] - positions[None, :, :]
    dist = np.hypot(diffs[..., 0], diffs[..., 1])
    edges = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if dist[i, j] <= radius
    }
    edges = _ensure_connected(n, edges, positions)
    servers = _sample_servers(n, positions, rng, compute_range, storage_range)
    links = [
        _link(u, v, rng, bandwidth_range, distance=float(dist[u, v]))
        for u, v in sorted(edges)
    ]
    return EdgeNetwork(servers, links)


def stadium_topology(
    n: int,
    seed: SeedLike = None,
    density: float = 0.45,
    compute_range: tuple[float, float] = COMPUTE_RANGE,
    storage_range: tuple[float, float] = STORAGE_RANGE,
    bandwidth_range: tuple[float, float] = BANDWIDTH_RANGE,
) -> EdgeNetwork:
    """Base stations around the National Stadium footprint (paper §V.A).

    Stations cluster densely near the stadium center and thin out with
    distance (radial Gaussian), mimicking urban base-station deployment.
    ``density`` scales the connection radius relative to the extent.
    """
    check_positive("n", n)
    check_probability("density", density)
    rng = as_generator(seed)
    center = np.array([STADIUM_EXTENT_KM / 2.0, STADIUM_EXTENT_KM / 2.0])
    radial = np.abs(rng.normal(0.0, STADIUM_EXTENT_KM / 4.0, size=n))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    positions = center + np.stack(
        [radial * np.cos(angle), radial * np.sin(angle)], axis=1
    )
    positions = np.clip(positions, 0.0, STADIUM_EXTENT_KM)
    diffs = positions[:, None, :] - positions[None, :, :]
    dist = np.hypot(diffs[..., 0], diffs[..., 1])
    radius = density * STADIUM_EXTENT_KM
    edges = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if dist[i, j] <= radius
    }
    edges = _ensure_connected(n, edges, positions)
    servers = _sample_servers(n, positions, rng, compute_range, storage_range)
    links = [
        _link(u, v, rng, bandwidth_range, distance=float(dist[u, v]))
        for u, v in sorted(edges)
    ]
    return EdgeNetwork(servers, links)


def waxman_topology(
    n: int,
    seed: SeedLike = None,
    alpha: float = 0.6,
    beta: float = 0.4,
    extent: float = STADIUM_EXTENT_KM,
    compute_range: tuple[float, float] = COMPUTE_RANGE,
    storage_range: tuple[float, float] = STORAGE_RANGE,
    bandwidth_range: tuple[float, float] = BANDWIDTH_RANGE,
) -> EdgeNetwork:
    """Waxman random graph: P(link) = α·exp(−d / (β·D_max))."""
    check_positive("n", n)
    check_probability("alpha", alpha)
    check_probability("beta", beta)
    rng = as_generator(seed)
    positions = rng.uniform(0.0, extent, size=(n, 2))
    diffs = positions[:, None, :] - positions[None, :, :]
    dist = np.hypot(diffs[..., 0], diffs[..., 1])
    dmax = float(dist.max()) or 1.0
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            p = alpha * np.exp(-dist[i, j] / (beta * dmax))
            if rng.random() < p:
                edges.add((i, j))
    edges = _ensure_connected(n, edges, positions)
    servers = _sample_servers(n, positions, rng, compute_range, storage_range)
    links = [
        _link(u, v, rng, bandwidth_range, distance=float(dist[u, v]))
        for u, v in sorted(edges)
    ]
    return EdgeNetwork(servers, links)


def _regular(
    n: int,
    edges: list[tuple[int, int]],
    positions: np.ndarray,
    seed: SeedLike,
    compute_range: tuple[float, float],
    storage_range: tuple[float, float],
    bandwidth_range: tuple[float, float],
) -> EdgeNetwork:
    rng = as_generator(seed)
    servers = _sample_servers(n, positions, rng, compute_range, storage_range)
    links = [
        _link(
            u,
            v,
            rng,
            bandwidth_range,
            distance=float(np.hypot(*(positions[u] - positions[v]))),
        )
        for u, v in edges
    ]
    return EdgeNetwork(servers, links)


def ring_topology(
    n: int,
    seed: SeedLike = None,
    compute_range: tuple[float, float] = COMPUTE_RANGE,
    storage_range: tuple[float, float] = STORAGE_RANGE,
    bandwidth_range: tuple[float, float] = BANDWIDTH_RANGE,
) -> EdgeNetwork:
    """Cycle of ``n`` nodes (n >= 3)."""
    if n < 3:
        raise ValueError(f"ring needs at least 3 nodes, got {n}")
    angle = 2.0 * np.pi * np.arange(n) / n
    positions = np.stack([np.cos(angle), np.sin(angle)], axis=1) + 1.0
    edges = [(k, (k + 1) % n) for k in range(n)]
    edges = [(min(u, v), max(u, v)) for u, v in edges]
    return _regular(
        n, sorted(set(edges)), positions, seed, compute_range, storage_range, bandwidth_range
    )


def line_topology(
    n: int,
    seed: SeedLike = None,
    compute_range: tuple[float, float] = COMPUTE_RANGE,
    storage_range: tuple[float, float] = STORAGE_RANGE,
    bandwidth_range: tuple[float, float] = BANDWIDTH_RANGE,
) -> EdgeNetwork:
    """Path graph of ``n`` nodes."""
    check_positive("n", n)
    positions = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
    edges = [(k, k + 1) for k in range(n - 1)]
    return _regular(
        n, edges, positions, seed, compute_range, storage_range, bandwidth_range
    )


def star_topology(
    n: int,
    seed: SeedLike = None,
    compute_range: tuple[float, float] = COMPUTE_RANGE,
    storage_range: tuple[float, float] = STORAGE_RANGE,
    bandwidth_range: tuple[float, float] = BANDWIDTH_RANGE,
) -> EdgeNetwork:
    """Hub-and-spoke graph; node 0 is the hub."""
    if n < 2:
        raise ValueError(f"star needs at least 2 nodes, got {n}")
    angle = 2.0 * np.pi * np.arange(n) / max(n - 1, 1)
    positions = np.stack([np.cos(angle), np.sin(angle)], axis=1) + 1.0
    positions[0] = (1.0, 1.0)
    edges = [(0, k) for k in range(1, n)]
    return _regular(
        n, edges, positions, seed, compute_range, storage_range, bandwidth_range
    )


def grid_topology(
    rows: int,
    cols: int,
    seed: SeedLike = None,
    compute_range: tuple[float, float] = COMPUTE_RANGE,
    storage_range: tuple[float, float] = STORAGE_RANGE,
    bandwidth_range: tuple[float, float] = BANDWIDTH_RANGE,
) -> EdgeNetwork:
    """``rows × cols`` 4-neighbor lattice."""
    check_positive("rows", rows)
    check_positive("cols", cols)
    n = rows * cols
    positions = np.array(
        [(r, c) for r in range(rows) for c in range(cols)], dtype=float
    )
    edges: list[tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            k = r * cols + c
            if c + 1 < cols:
                edges.append((k, k + 1))
            if r + 1 < rows:
                edges.append((k, k + cols))
    return _regular(
        n, edges, positions, seed, compute_range, storage_range, bandwidth_range
    )
