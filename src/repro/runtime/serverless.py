"""Serverless instance lifecycle: cold starts and warm keep-alive.

In serverless edge computing an invocation pays a **cold-start** penalty
when the target function instance is not resident; a recently used
instance stays **warm** for a keep-alive window and serves instantly.
The paper's storage-planning trade-off — "allowing more warm instances
in the nearby area" — is observable through this model: placements that
concentrate demand keep instances warm, while scattered low-traffic
instances repeatedly pay cold starts.

:class:`InstancePool` is one dense table over the placement's
``(service, node)`` grid: a boolean ``provisioned`` mask (the placement
matrix) and a float ``last_used`` time per cell, NaN for an instance
never invoked since it was provisioned.  An instance is warm at ``now``
when ``now - last_used <= keep_alive``; NaN compares false, so a
never-invoked instance is cold under any keep-alive, ``inf`` included.
:meth:`InstancePool.invoke` is the one scalar cold/warm rule the event
loop calls; the fixpoint replay (:mod:`repro.runtime.shard`) reads and
writes the same ``last_used`` cells in bulk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.placement import Placement
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class ServerlessConfig:
    """Cold-start model parameters.

    ``cold_start`` — seconds added to the first invocation of a cold
    instance (container pull + init); ``keep_alive`` — idle window after
    which a warm instance is reclaimed.
    """

    cold_start: float = 0.5
    keep_alive: float = 300.0

    def __post_init__(self) -> None:
        check_non_negative("cold_start", self.cold_start)
        check_non_negative("keep_alive", self.keep_alive)


class InstancePool:
    """Warm/cold bookkeeping over a placement, one ``(S, N)`` table.

    ``provisioned[s, k]`` is the placement's ``x(s, k)``;
    ``last_used[s, k]`` is the last invocation (or prewarm) time of that
    instance, NaN if it has none.  Cells outside the mask stay NaN.
    """

    def __init__(self, placement: Placement, config: ServerlessConfig = ServerlessConfig()):
        self.config = config
        self.provisioned = placement.matrix.copy()
        self.last_used = np.full(self.provisioned.shape, np.nan)
        self.cold_starts = 0
        self.warm_hits = 0
        self.evictions = 0
        self.prewarms = 0

    def update_placement(self, placement: Placement) -> None:
        """Apply a new placement: removed instances are evicted, new ones
        start cold; surviving instances keep their warmth."""
        new = placement.matrix.copy()
        self.last_used[~new] = np.nan
        self.provisioned = new

    def invoke(self, service: int, node: int, now: float) -> float:
        """Record an invocation; returns the startup penalty in seconds.

        The caller must only invoke provisioned pairs (the cluster
        guards each hop with :attr:`provisioned` and routes cloud
        fallbacks explicitly).
        """
        table = self.last_used
        # .item reads a Python float: the same IEEE subtraction as a
        # NumPy scalar, without building one on every hop
        last = table.item(service, node)
        table[service, node] = now
        if not (now - last <= self.config.keep_alive):
            self.cold_starts += 1
            return self.config.cold_start
        self.warm_hits += 1
        return 0.0

    def prewarm(self, service: int, node: int, now: float) -> None:
        """Warm an instance outside the request path (autoscaler keep-warm).

        The platform pays the container init in the background, so the
        instance's next invocation within the keep-alive window is a
        warm hit instead of a cold start.  Raises for pairs the
        placement does not provision; counted in :attr:`prewarms`.
        """
        if not self.provisioned[service, node]:
            raise ValueError(
                f"service {service} is not provisioned on node {node}"
            )
        self.last_used[service, node] = now
        self.prewarms += 1

    def evict(self, service: int, node: int) -> None:
        """Forget an instance's warmth (container crash or forced restart).

        The instance stays provisioned — the placement did not change —
        but its next invocation pays a fresh cold start.  No-op for
        pairs that were never warm; counted in :attr:`evictions`.
        """
        if not np.isnan(self.last_used[service, node]):
            self.last_used[service, node] = np.nan
            self.evictions += 1

    @property
    def n_provisioned(self) -> int:
        """Number of provisioned (service, node) instances."""
        return int(np.count_nonzero(self.provisioned))

    def warm_count(self, now: float) -> int:
        """Number of currently warm instances."""
        warm = now - self.last_used <= self.config.keep_alive
        return int(np.count_nonzero(warm & self.provisioned))
