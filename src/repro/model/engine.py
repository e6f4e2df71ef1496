"""Optimal-routing evaluation against a committed base.

The combination stage's serial descent (Alg. 3 lines 6-15) scores each
candidate merge on the true objective ``Q`` under optimal routing.  A
candidate differs from the iteration's snapshot placement in the merged
service's host set (plus whatever Alg. 5 moved), and only a fraction of
the requests can change their optimal route; re-routing the whole
workload per candidate wastes almost all of the work.

:class:`BatchRouter` keeps a committed *base*: the placement it routed,
the ``(H, L)`` optimal assignment, and the ``(H,)`` Eq. (2) latency of
every request under its model.  :meth:`BatchRouter.score_many` takes the
candidate placements of one serial iteration — placements, not changes
to any state — and re-routes the requests whose optimal route can change
against the base, for all candidates in one call of the routing kernels
and one of the Eq. (2) kernel (their host tables are stacked, each
candidate's rows offset into its own block).  Each returned trial holds
the latency sum of a spliced copy of the base vector; nothing is
committed.  :meth:`BatchRouter.score` is the one-placement case and
:meth:`BatchRouter.commit` makes a scored placement the new base.
:meth:`BatchRouter.route` (the runtime's hedge path) re-routes against
the base, commits the result and returns the
:class:`~repro.model.placement.Routing`; it runs only the routing
kernels and leaves the base's latencies unpriced; scoring against such a
base prices every row of its result.

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
the Eq. (2) kernel of :func:`~repro.model.latency.total_latency`; both
compute each row on its own, so stacking several candidates' rows in one
call changes no value.  The assignment and the latency vector are
bit-identical to a fresh evaluation, and so is the latency sum, taken
over the full vector in the same order.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.model.instance import ProblemInstance
from repro.model.latency import _components
from repro.model.placement import Placement, Routing
from repro.model.routing import _chain_assign_batch, _host_table, _star_assign


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


def _splice(base: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A copy of ``base`` with ``rows`` set to ``values``; ``base`` itself
    when there is no row."""
    if not rows.size:
        return base
    out = base.copy()
    out[rows] = values
    return out


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
        (pruning rule), grouped by service; every position without a
        base."""
        inst = self.instance
        base = self._base
        if base is None:
            self.rerouted_services += inst.n_services
            return np.nonzero(inst.chain_mask)
        changed = np.nonzero((matrix != base.matrix).any(axis=1))[0]
        self.rerouted_services += int(changed.size)
        self.cached_services += inst.n_services - int(changed.size)
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

    def _trials(self, placements: list[Placement], price: bool) -> list[RouteTrial]:
        """Route every placement against the base, in one kernel call.

        Each placement's stale rows (pruning rule) are stacked into one
        batch: the placements' host tables are stacked into one
        ``(C·S, W)`` table and each stacked row's service ids are offset
        into its own placement's block, so the routing kernels (and, with
        ``price``, the Eq. (2) kernel) run once for all of them.  Each
        trial is a copy of the base with its own rows spliced in; a
        placement with no stale row shares the base's arrays.  Against
        no base, or a base without latencies, every row of every
        placement is priced.
        """
        inst = self.instance
        base = self._base
        S, H, C = inst.n_services, inst.n_requests, len(placements)
        matrices = np.stack([p.matrix for p in placements])
        stale = [self._stale(m) for m in matrices]
        rows = []
        for hs, _ in stale:
            hit = np.zeros(H, dtype=bool)
            hit[hs] = True
            rows.append(np.flatnonzero(hit))
        sizes = [r.size for r in rows]
        starts = np.cumsum([0] + sizes)
        self.rerouted_rows += int(starts[-1])
        if base is None:
            base_a = np.full((H, inst.max_chain), -1, dtype=np.int64)
        else:
            base_a = base.assignment
        r_all = np.concatenate(rows)
        a_all = base_a[r_all]
        if r_all.size:
            pad, valid = _host_table(inst, matrices)
            pad, valid = pad.reshape(C * S, -1), valid.reshape(C * S, -1)
            comp = inst.compute_ext
            if self.model == "star":
                hs = np.concatenate([h for h, _ in stale])
                js = np.concatenate([j for _, j in stale])
                block = np.repeat(np.arange(C), [h.size for h, _ in stale])
                at = np.concatenate(
                    [starts[c] + np.searchsorted(rows[c], stale[c][0]) for c in range(C)]
                )
                a_all[at, js] = _star_assign(inst, pad, valid, comp, hs, js, block * S)
            else:
                block = np.repeat(np.arange(C), sizes)
                a_all = _chain_assign_batch(inst, pad, valid, comp, r_all, block * S)
        assigned = [
            _splice(base_a, rows[c], a_all[starts[c] : starts[c + 1]]) for c in range(C)
        ]
        if not price:
            return [RouteTrial(m, a, None, None) for m, a in zip(matrices, assigned)]
        if base is None or base.latency is None:
            # nothing to splice into: price every row of every placement
            every = np.tile(np.arange(H), C)
            lat_all = _components(inst, np.concatenate(assigned), self.model, every).total
            lats = np.split(lat_all, C)
        else:
            lat_all = _components(inst, a_all, self.model, r_all).total
            lats = [
                _splice(base.latency, rows[c], lat_all[starts[c] : starts[c + 1]])
                for c in range(C)
            ]
        return [
            RouteTrial(m, a, lat, float(lat.sum()))
            for m, a, lat in zip(matrices, assigned, lats)
        ]

    def score_many(self, placements: list[Placement]) -> list[RouteTrial]:
        """Route ``placements`` against the base without committing them.

        One call routes and prices the stale rows of every placement
        (:meth:`_trials`); each returned trial holds spliced copies of
        the base assignment and latency vector.  With no base yet every
        request of every placement is routed, and the first result is
        committed as the base: there is nothing to score against.
        """
        trials = self._trials(placements, price=True)
        if self._base is None:
            self._base = trials[0]
        return trials

    def score(self, placement: Placement) -> RouteTrial:
        """:meth:`score_many` for one placement."""
        return self.score_many([placement])[0]

    def commit(self, trial: RouteTrial) -> None:
        """Make a trial from :meth:`score_many` the base of later calls."""
        self._base = trial

    def route(self, placement: Placement) -> Routing:
        """Optimal routing for ``placement``; it becomes the new base.

        Identical to :func:`~repro.model.routing.optimal_routing`, at the
        cost of the rows the pruning rule re-routes.  Prices no latency:
        the base it commits carries none.
        """
        self._base = self._trials([placement], price=False)[0]
        return Routing(self.instance, self._base.assignment)
