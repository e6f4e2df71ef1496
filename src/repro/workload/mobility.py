"""User mobility over the edge network (paper Fig. 10 experiment).

In the 4-hour Kubernetes trace experiment, "50 users randomly moved among
edge nodes and issued requests every 5 minutes".
:class:`RandomWaypointMobility` reproduces this as a neighbour hop: each
step, every user independently stays, or with probability ``move_prob``
hops to a uniformly drawn *neighbouring* edge server.  Initial homes are
uniform over the servers.

Each step produces the home-server vector consumed by
:func:`repro.workload.users.generate_requests`.
"""

from __future__ import annotations

import numpy as np

from repro.network.topology import EdgeNetwork
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_probability


class RandomWaypointMobility:
    """Stateful neighbour-hop mobility process over an edge network.

    Parameters
    ----------
    network:
        The substrate network; users attach to its servers.
    n_users:
        Number of users to track.
    move_prob:
        Per-step probability that a user hops to a neighbour.  A user
        on a server without neighbours stays.
    seed:
        RNG seed.
    """

    def __init__(
        self,
        network: EdgeNetwork,
        n_users: int,
        move_prob: float = 0.3,
        seed: SeedLike = None,
    ):
        check_positive("n_users", n_users)
        check_probability("move_prob", move_prob)
        self.network = network
        self.n_users = int(n_users)
        self.move_prob = float(move_prob)
        self._rng = as_generator(seed)

        self._homes = self._rng.integers(0, network.n, size=self.n_users)
        # CSR neighbour table: server k's neighbours are
        # ``_flat[_ptr[k]:_ptr[k] + _deg[k]]``, in the ascending order of
        # :meth:`EdgeNetwork.neighbors`.
        adj = network.rate_matrix > 0.0
        self._deg = np.count_nonzero(adj, axis=1)
        self._ptr = np.cumsum(self._deg) - self._deg
        self._flat = np.nonzero(adj)[1]

    # ------------------------------------------------------------------
    @property
    def homes(self) -> np.ndarray:
        """Current home-server index per user (read-only copy)."""
        return self._homes.copy()

    def step(self) -> np.ndarray:
        """Advance one time slot; returns the new home vector.

        Two draws per step: the moving mask over all users, then one
        uniform per mover that picks its neighbour.
        """
        movers = np.flatnonzero(self._rng.random(self.n_users) < self.move_prob)
        u = self._rng.random(movers.size)
        homes = self._homes[movers]
        deg = self._deg[homes]
        hop = deg > 0
        pick = self._ptr[homes] + (u * deg).astype(np.int64)
        self._homes[movers[hop]] = self._flat[pick[hop]]
        return self.homes
