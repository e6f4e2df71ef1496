"""Failure injection: edge-node outages for robustness experiments.

Edge deployments lose nodes — power, backhaul, maintenance.  The paper's
framework re-provisions every slot on the *observed* system state, which
makes outage handling implicit: a down node simply disappears from the
usable state.  This module makes that testable:

* :class:`OutageSchedule` — per-slot down-node sets from independent
  two-state Markov (up/down) processes per node, seeded;
* :class:`DegradationPolicy` — the documented, overridable ε values a
  down node's storage and compute are degraded to;
* :func:`degrade_instance` — rewrite a :class:`ProblemInstance` so down
  nodes cannot host instances (storage → ε below any footprint) or do
  useful work (compute → ε), while their radios keep relaying (links
  survive, so the network stays connected and latency finite); users
  homed at a down station re-attach to the nearest live one.

Request-level faults *within* a slot (link degradation, instance
crashes) live in :mod:`repro.runtime.resilience`, layered on top of
this module's slot-level outages.

The online simulator accepts an ``OutageSchedule`` and applies the
degradation before each slot's solve, so any solver's resilience —
including :class:`repro.core.online.OnlineSoCL`'s warm-start — can be
measured (``benchmarks/bench_online.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.model.instance import ProblemInstance
from repro.network.topology import EdgeNetwork, EdgeServer
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_probability
from repro.workload.requests import RequestBatch


@dataclass(frozen=True)
class DegradationPolicy:
    """How a down node is degraded out of the solvable state.

    ``down_storage`` — storage assigned to a failed node: strictly below
    any real service footprint so the capacity constraint (Eq. 6)
    forbids placement there.  ``down_compute`` — compute assigned to a
    failed node: any processing there is absurdly slow, so routing never
    selects a surviving stale instance.  Both must be positive (zero
    would divide by zero in the latency model) and small enough that the
    semantics above hold for the scenario's service footprints; the
    defaults match every paper scenario in this repository.
    """

    down_storage: float = 1e-6
    down_compute: float = 1e-3

    def __post_init__(self) -> None:
        check_positive("down_storage", self.down_storage)
        check_positive("down_compute", self.down_compute)


class OutageSchedule:
    """Independent per-node up/down Markov chains over time slots."""

    def __init__(
        self,
        n_nodes: int,
        fail_prob: float = 0.05,
        repair_prob: float = 0.5,
        seed: SeedLike = None,
        protect: Sequence[int] = (),
        degradation: DegradationPolicy = DegradationPolicy(),
    ):
        check_positive("n_nodes", n_nodes)
        check_probability("fail_prob", fail_prob)
        check_probability("repair_prob", repair_prob)
        self.n_nodes = int(n_nodes)
        self.fail_prob = float(fail_prob)
        self.repair_prob = float(repair_prob)
        self.protect = frozenset(int(p) for p in protect)
        self.degradation = degradation
        self._rng = as_generator(seed)
        self._down = np.zeros(self.n_nodes, dtype=bool)

    @property
    def down_nodes(self) -> frozenset[int]:
        """Indices of nodes currently down, as a frozenset."""
        return frozenset(int(v) for v in np.nonzero(self._down)[0])

    def step(self) -> frozenset[int]:
        """Advance one slot; returns the set of down nodes."""
        roll = self._rng.random(self.n_nodes)
        fail = (~self._down) & (roll < self.fail_prob)
        repair = self._down & (roll < self.repair_prob)
        self._down = (self._down | fail) & ~repair
        # never take the whole network down, and honor protected nodes
        for p in self.protect:
            self._down[p] = False
        if self._down.all():
            survivor = int(self._rng.integers(0, self.n_nodes))
            self._down[survivor] = False
        return self.down_nodes

    def availability(self, n_slots: int) -> float:
        """Simulated long-run fraction of node-slots up (resets state)."""
        check_positive("n_slots", n_slots)
        up = 0
        for _ in range(n_slots):
            down = self.step()
            up += self.n_nodes - len(down)
        return up / (n_slots * self.n_nodes)


def degrade_instance(
    instance: ProblemInstance,
    down_nodes: frozenset[int] | set[int],
    policy: DegradationPolicy = DegradationPolicy(),
) -> ProblemInstance:
    """Clone ``instance`` with ``down_nodes`` unable to host or compute.

    Links survive (radios keep relaying) so the topology stays connected;
    requests homed at a down node re-attach to the nearest live node by
    virtual-link transfer time.  The request set and its order are
    unchanged, so per-request deadlines carry over.  ``policy`` sets the
    degraded storage and compute values (see :class:`DegradationPolicy`).
    """
    down = {int(v) for v in down_nodes}
    for v in down:
        if not (0 <= v < instance.n_servers):
            raise IndexError(f"down node {v} outside network of size {instance.n_servers}")
    if not down:
        return instance
    if len(down) >= instance.n_servers:
        raise ValueError("cannot take every edge node down")

    network = instance.network
    servers = [
        EdgeServer(
            index=s.index,
            compute=policy.down_compute if s.index in down else s.compute,
            storage=policy.down_storage if s.index in down else s.storage,
            position=s.position,
            name=s.name,
        )
        for s in network.servers
    ]
    degraded_net = EdgeNetwork(servers, network.links)

    # each down node maps to its nearest live node (first minimum on ties)
    down_nodes = np.array(sorted(down), dtype=np.int64)
    up_nodes = np.setdiff1d(np.arange(network.n), down_nodes)
    nearest = np.arange(network.n)
    nearest[down_nodes] = up_nodes[
        np.argmin(network.paths.inv_rate[np.ix_(down_nodes, up_nodes)], axis=1)
    ]
    batch = instance.requests
    requests = RequestBatch(
        index=batch.index,
        homes=nearest[batch.homes],
        chains=batch.chains,
        chain_offsets=batch.chain_offsets,
        data_in=batch.data_in,
        data_out=batch.data_out,
        edge_data=batch.edge_data,
        validate=False,  # only the homes changed, and they stay in range
    )
    return ProblemInstance(
        degraded_net,
        instance.app,
        requests,
        instance.config,
        deadlines=instance._deadlines,
    )
