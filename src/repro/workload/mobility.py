"""Random-waypoint user mobility (paper Fig. 10 experiment).

In the 4-hour Kubernetes trace experiment, "50 users randomly moved among
edge nodes and issued requests every 5 minutes".  The
:class:`RandomWaypointMobility` model reproduces this at two levels of
fidelity:

* **discrete** (paper-faithful) — each step, a user either stays or jumps
  to a random *neighboring* edge server with probability ``move_prob``;
* **planar** — users move toward waypoints in the plane at a sampled
  speed and are associated with the nearest base station (only the
  tests use it; every experiment runs discrete mode).

Both produce, per time slot, the home-server vector consumed by
:func:`repro.workload.users.generate_requests`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.network.topology import EdgeNetwork
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_probability


class RandomWaypointMobility:
    """Stateful mobility process over an edge network.

    Parameters
    ----------
    network:
        The substrate network; users attach to its servers.
    n_users:
        Number of users to track.
    move_prob:
        Per-step probability that a user relocates (discrete mode).
    mode:
        ``"discrete"`` (neighbor hops) or ``"planar"`` (waypoint motion
        with nearest-station association).
    speed_range:
        Planar mode: user speed range in km per step.
    seed:
        RNG seed.
    """

    def __init__(
        self,
        network: EdgeNetwork,
        n_users: int,
        move_prob: float = 0.3,
        mode: str = "discrete",
        speed_range: tuple[float, float] = (0.1, 0.5),
        seed: SeedLike = None,
    ):
        check_positive("n_users", n_users)
        check_probability("move_prob", move_prob)
        if mode not in ("discrete", "planar"):
            raise ValueError(f"mode must be 'discrete' or 'planar', got {mode!r}")
        if not (0 < speed_range[0] <= speed_range[1]):
            raise ValueError(f"invalid speed_range {speed_range}")
        self.network = network
        self.n_users = int(n_users)
        self.move_prob = float(move_prob)
        self.mode = mode
        self.speed_range = speed_range
        self._rng = as_generator(seed)

        self._homes = self._rng.integers(0, network.n, size=self.n_users)
        # Per-node neighbor arrays, resolved lazily: discrete steps draw
        # one choice per moving user, and the topology is static, so
        # caching avoids an adjacency scan per user per slot without
        # touching the RNG stream.
        self._neighbor_cache: dict[int, np.ndarray] = {}
        if mode == "planar":
            positions = network.positions
            lo = positions.min(axis=0)
            hi = positions.max(axis=0)
            self._extent = (lo, hi)
            self._pos = self._rng.uniform(lo, hi, size=(self.n_users, 2))
            self._waypoints = self._rng.uniform(lo, hi, size=(self.n_users, 2))
            self._homes = self._nearest_station(self._pos)

    # ------------------------------------------------------------------
    @property
    def homes(self) -> np.ndarray:
        """Current home-server index per user (read-only copy)."""
        return self._homes.copy()

    def _nearest_station(self, pos: np.ndarray) -> np.ndarray:
        stations = self.network.positions
        d = np.linalg.norm(pos[:, None, :] - stations[None, :, :], axis=2)
        return d.argmin(axis=1)

    def step(self) -> np.ndarray:
        """Advance one time slot; returns the new home vector."""
        if self.mode == "discrete":
            moving = self._rng.random(self.n_users) < self.move_prob
            cache = self._neighbor_cache
            for u in np.nonzero(moving)[0]:
                home = int(self._homes[u])
                neighbors = cache.get(home)
                if neighbors is None:
                    neighbors = self.network.neighbors(home)
                    cache[home] = neighbors
                if neighbors.size:
                    self._homes[u] = int(self._rng.choice(neighbors))
        else:
            speed = self._rng.uniform(*self.speed_range, size=(self.n_users, 1))
            delta = self._waypoints - self._pos
            dist = np.linalg.norm(delta, axis=1, keepdims=True)
            arrived = dist[:, 0] <= speed[:, 0]
            safe = np.where(dist > 0.0, dist, 1.0)
            self._pos = self._pos + delta / safe * np.minimum(speed, dist)
            if arrived.any():
                lo, hi = self._extent
                self._waypoints[arrived] = self._rng.uniform(
                    lo, hi, size=(int(arrived.sum()), 2)
                )
            self._homes = self._nearest_station(self._pos)
        return self.homes

    def run(self, n_steps: int) -> np.ndarray:
        """Simulate ``n_steps`` slots; returns ``(n_steps, n_users)`` homes."""
        check_positive("n_steps", n_steps)
        out = np.empty((n_steps, self.n_users), dtype=np.int64)
        for t in range(n_steps):
            out[t] = self.step()
        return out

    def churn(self, before: np.ndarray, after: np.ndarray) -> float:
        """Fraction of users whose home changed between two slots."""
        before = np.asarray(before)
        after = np.asarray(after)
        if before.shape != after.shape:
            raise ValueError("home vectors must have equal shape")
        if before.size == 0:
            return 0.0
        return float(np.mean(before != after))
