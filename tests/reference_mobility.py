"""The per-user mobility loop, frozen as an input stream for tests.

:meth:`repro.workload.mobility.RandomWaypointMobility.step` draws the
neighbour hop for every mover at once: one uniform per mover indexes a
CSR neighbour table.  Before it did, it looped over the moving users and
called ``Generator.choice`` on each one's neighbour array.  Both draw
the same distribution, but not the same stream.  The engine golden
digests (outage traces, fault paths) were recorded on the per-user
stream.  They pin the engines, not the mobility model, so their suites
run on this verbatim copy of the old loop through the
``per_user_stream`` fixture instead of being re-recorded.  It is a test
input, not a second model: nothing under ``src/`` calls it.
"""

from __future__ import annotations

import numpy as np

from repro.workload.mobility import RandomWaypointMobility


class PerUserMobility(RandomWaypointMobility):
    """:class:`RandomWaypointMobility` with the old per-user ``step``.

    Same constructor and initial homes; the RNG draw order per step is
    the moving mask, then one ``choice`` per mover with neighbours, in
    user order.
    """

    def step(self) -> np.ndarray:
        moving = self._rng.random(self.n_users) < self.move_prob
        for u in np.nonzero(moving)[0]:
            home = int(self._homes[u])
            neighbors = self.network.neighbors(home)
            if neighbors.size:
                self._homes[u] = int(self._rng.choice(neighbors))
        return self.homes
