"""Optimal-routing evaluation against a committed base.

The combination stage's serial descent (Alg. 3 lines 6-15) scores each
candidate merge on the true objective ``Q`` under optimal routing.  A
candidate differs from the iteration's snapshot placement in the merged
service's host set (plus whatever Alg. 5 moved), and only a fraction of
the requests can change their optimal route; re-routing the whole
workload per candidate wastes almost all of the work.

:class:`BatchRouter` keeps a committed *base*: the placement it routed,
the ``(H, L)`` optimal assignment, and the ``(H,)`` Eq. (2) latency of
every request under its model.  :meth:`BatchRouter.score` re-routes only
the requests whose optimal route can change against the base and returns
the latency sum of a spliced copy of the base vector, without
committing; :meth:`BatchRouter.commit` makes a scored placement the new
base.  :meth:`BatchRouter.route` (the runtime's hedge path) re-routes
against the base, commits the result and returns the
:class:`~repro.model.placement.Routing`; it runs only the routing
kernels and leaves the base's latencies unpriced; :meth:`~BatchRouter.score`
against such a base prices its whole result.

Pruning rule
------------
For each service whose host set differs from the base:

* it only **lost** hosts and still has an edge host: only the rows whose
  base route uses a lost ``(service, node)`` pair re-route;
* any other change (a host gained, or the fall-back to the cloud when no
  edge host is left): every row whose chain contains the service
  re-routes.

Every other row keeps its base assignment and latency, and this is
exact, ties included.  Under the star model positions decouple, so only
the named positions of the changed services re-run their argmin; the
rest of a re-routed row keeps its base hosts.  Removing hosts that a row's optimal path does not
use leaves that path's cost unchanged and only raises or keeps the cost
of every other path (IEEE addition is monotone).  So under the chain
Viterbi each layer's cost at the path's own node is unchanged and every
other cost is no lower: the minimizers left are a subset of the old ones,
in the same ascending host order, and every first-minimum argmin (each
back-pointer on the path, the terminal pick, and under the star model
each position's argmin) picks the same host as before.  A gained host,
or the cloud replacing the edge hosts, can open a cheaper path, hence the
full rule.  Re-routed rows run through the batch kernels of
:func:`~repro.model.routing.optimal_routing` and their latencies through
the Eq. (2) kernel of :func:`~repro.model.latency.total_latency`, so the
assignment and the latency vector are bit-identical to a fresh
evaluation, and so is the latency sum, taken over the full vector in the
same order.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.model.instance import ProblemInstance
from repro.model.latency import _components
from repro.model.placement import Placement, Routing
from repro.model.routing import (
    _chain_assign_batch,
    _host_lists,
    _star_assign,
)


class RouteTrial(NamedTuple):
    """One placement routed against a :class:`BatchRouter`'s base.

    The arrays are the router's own: callers read them and never write.
    """

    matrix: np.ndarray  #: the placement matrix routed
    assignment: np.ndarray  #: (H, L) optimal assignment
    #: (H,) Eq. (2) latency of each request; ``None`` on a base that
    #: :meth:`BatchRouter.route` committed, which prices nothing
    latency: Optional[np.ndarray]
    latency_sum: Optional[float]


class BatchRouter:
    """Optimal routing that re-routes only the requests a change can move.

    Parameters
    ----------
    instance:
        The frozen problem instance.
    model:
        Latency model override; defaults to the instance's configured
        model (mirrors :func:`~repro.model.routing.optimal_routing`).
    """

    def __init__(self, instance: ProblemInstance, model: Optional[str] = None):
        self.instance = instance
        self.model = model or instance.config.latency_model
        # per service: the (row, position) pairs of the chain positions
        # running it
        hs, js = np.nonzero(instance.chain_mask)
        svc = instance.chain_matrix[hs, js]
        order = np.argsort(svc)
        hs, js = hs[order], js[order]
        bounds = np.searchsorted(svc[order], np.arange(instance.n_services + 1))
        self._positions = [
            (hs[lo:hi], js[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        self._base: Optional[RouteTrial] = None
        #: diagnostic counters: services whose host set differed from the
        #: base vs. unchanged, and rows run through the routing kernels
        self.rerouted_services = 0
        self.cached_services = 0
        self.rerouted_rows = 0

    def invalidate(self) -> None:
        """Drop the base; the next call routes every request."""
        self._base = None

    def _stale(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(row, position)`` pairs whose host may differ from the base
        (pruning rule), grouped by service."""
        base = self._base
        changed = np.nonzero((matrix != base.matrix).any(axis=1))[0]
        self.rerouted_services += int(changed.size)
        self.cached_services += self.instance.n_services - int(changed.size)
        hs = [np.empty(0, dtype=np.int64)]
        js = [np.empty(0, dtype=np.int64)]
        for s in changed.tolist():
            rows, pos = self._positions[s]
            new, old = matrix[s], base.matrix[s]
            if new.any() and not (new & ~old).any():
                lost = np.append(old & ~new, False)  # the cloud is never lost
                keep = lost[base.assignment[rows, pos]]
                rows, pos = rows[keep], pos[keep]
            hs.append(rows)
            js.append(pos)
        return np.concatenate(hs), np.concatenate(js)

    def _reroute(
        self, placement: Placement
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The placement's matrix and optimal assignment, and the rows
        re-routed against the base (``None``: every row, there was no
        base).  Runs only the routing kernels; with no stale row the
        assignment is the base's own array."""
        inst = self.instance
        matrix = placement.matrix.copy()
        base = self._base
        if base is None:
            rows = None
            positions = None
            a = np.full((inst.n_requests, inst.max_chain), -1, dtype=np.int64)
            self.rerouted_services += inst.n_services
            self.rerouted_rows += inst.n_requests
        else:
            positions = self._stale(matrix)
            rows = np.unique(positions[0])
            if rows.size == 0:
                return matrix, base.assignment, rows
            a = base.assignment.copy()
            self.rerouted_rows += int(rows.size)
        hosts = _host_lists(inst, placement)
        if self.model == "star":
            _star_assign(inst, hosts, inst.compute_ext, a, positions=positions)
        else:
            _chain_assign_batch(inst, hosts, inst.compute_ext, a, rows=rows)
        return matrix, a, rows

    def score(self, placement: Placement) -> RouteTrial:
        """Route ``placement`` against the base without committing it.

        Only the rows the pruning rule names re-route and re-price; the
        returned trial holds spliced copies of the base assignment and
        latency vector.  Against a base without latencies (from
        :meth:`route`) the whole result is priced.  With no base yet every request is
        routed, and the result is committed as the base: there is
        nothing to score against.
        """
        matrix, a, rows = self._reroute(placement)
        base = self._base
        if base is None or base.latency is None:
            lat = _components(self.instance, a, self.model).total
        elif rows.size == 0:
            return base._replace(matrix=matrix)
        else:
            lat = base.latency.copy()
            lat[rows] = _components(self.instance, a, self.model, rows).total
        trial = RouteTrial(matrix, a, lat, float(lat.sum()))
        if base is None:
            self._base = trial
        return trial

    def commit(self, trial: RouteTrial) -> None:
        """Make a trial from :meth:`score` the base of later calls."""
        self._base = trial

    def route(self, placement: Placement) -> Routing:
        """Optimal routing for ``placement``; it becomes the new base.

        Identical to :func:`~repro.model.routing.optimal_routing`, at the
        cost of the rows the pruning rule re-routes.  Prices no latency:
        the base it commits carries none.
        """
        matrix, a, _ = self._reroute(placement)
        self._base = RouteTrial(matrix, a, None, None)
        return Routing(self.instance, a)
