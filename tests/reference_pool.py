"""The dict-based instance pool, frozen as an oracle for tests.

:class:`repro.runtime.serverless.InstancePool` holds warmth as two dense
``(service, node)`` arrays: a provisioned mask and a last-use time with
NaN for "never invoked".  Before it did, it kept a set of provisioned
pairs and a dict of last-use times, and answered every invocation
through a three-valued lifecycle state.  This is a verbatim copy of that
pool (less ``commit_batch``, the fixpoint replay's bulk write, which no
test drives), so ``tests/test_runtime_events_serverless.py`` can check
the dense table against it operation by operation.  It is a test
oracle, not a second model: nothing under ``src/`` calls it.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from repro.model.placement import Placement
from repro.runtime.serverless import ServerlessConfig


class InstanceState(Enum):
    """Lifecycle state of a (service, node) instance."""

    ABSENT = "absent"  # not provisioned on this node
    COLD = "cold"  # provisioned but not resident in memory
    WARM = "warm"  # resident; invocation is penalty-free


class DictInstancePool:
    """Warm/cold bookkeeping over a placement."""

    def __init__(self, placement: Placement, config: ServerlessConfig = ServerlessConfig()):
        self.config = config
        self._provisioned: set[tuple[int, int]] = set(placement.pairs())
        self._last_used: dict[tuple[int, int], float] = {}
        self.cold_starts = 0
        self.warm_hits = 0
        self.evictions = 0
        self.prewarms = 0

    def update_placement(self, placement: Placement) -> None:
        """Apply a new placement: removed instances are evicted, new ones
        start cold; surviving instances keep their warmth."""
        new = set(placement.pairs())
        for key in list(self._last_used):
            if key not in new:
                del self._last_used[key]
        self._provisioned = new

    def state(self, service: int, node: int, now: float) -> InstanceState:
        """Lifecycle state of (service, node) at time ``now`` — ABSENT, COLD, or WARM depending on provisioning and keep-alive."""
        key = (service, node)
        if key not in self._provisioned:
            return InstanceState.ABSENT
        last = self._last_used.get(key)
        if last is not None and now - last <= self.config.keep_alive:
            return InstanceState.WARM
        return InstanceState.COLD

    def invoke(self, service: int, node: int, now: float) -> float:
        """Record an invocation; returns the startup penalty in seconds.

        Invoking an instance that is not provisioned raises — the caller
        (cluster) must route cloud fallbacks explicitly.
        """
        state = self.state(service, node, now)
        if state is InstanceState.ABSENT:
            raise ValueError(
                f"service {service} is not provisioned on node {node}"
            )
        self._last_used[(service, node)] = now
        if state is InstanceState.COLD:
            self.cold_starts += 1
            return self.config.cold_start
        self.warm_hits += 1
        return 0.0

    def is_provisioned(self, service: int, node: int) -> bool:
        """Whether ``(service, node)`` is provisioned by the placement."""
        return (service, node) in self._provisioned

    def last_used(self, service: int, node: int) -> Optional[float]:
        """Last invocation time of ``(service, node)``, or ``None`` if never."""
        return self._last_used.get((service, node))

    def prewarm(self, service: int, node: int, now: float) -> None:
        """Warm an instance outside the request path (autoscaler keep-warm).

        The platform pays the container init in the background, so the
        instance's next invocation within the keep-alive window is a
        warm hit instead of a cold start.  Raises for pairs the
        placement does not provision; counted in :attr:`prewarms`.
        """
        if (service, node) not in self._provisioned:
            raise ValueError(
                f"service {service} is not provisioned on node {node}"
            )
        self._last_used[(service, node)] = now
        self.prewarms += 1

    def evict(self, service: int, node: int) -> None:
        """Forget an instance's warmth (container crash or forced restart).

        The instance stays provisioned — the placement did not change —
        but its next invocation pays a fresh cold start.  No-op for
        pairs that were never warm; counted in :attr:`evictions`.
        """
        if self._last_used.pop((service, node), None) is not None:
            self.evictions += 1

    @property
    def n_provisioned(self) -> int:
        """Number of provisioned (service, node) instances."""
        return len(self._provisioned)

    def warm_count(self, now: float) -> int:
        """Number of currently warm instances."""
        return sum(
            1
            for key in self._provisioned
            if (last := self._last_used.get(key)) is not None
            and now - last <= self.config.keep_alive
        )
