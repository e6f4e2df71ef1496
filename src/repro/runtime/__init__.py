"""Serverless edge-cluster runtime: the Kubernetes-testbed substitute.

The paper validates SoCL on a 17-machine Kubernetes testbed (16 edge
nodes + 1 master) with users issuing requests every ~5 minutes over 4
hours (Figs. 9-10).  Per DESIGN.md §2 we reproduce that environment with
a discrete-event simulation:

* :mod:`repro.runtime.serverless` — cold/warm instance lifecycle with
  keep-alive expiry (the "warm instances in the nearby area" the paper's
  storage planning enables);
* :mod:`repro.runtime.replay` — the slot plan and columnar result of
  the vectorized fault-free replay;
* :mod:`repro.runtime.shard` — the fixpoint replay engine (the online
  trace hot path), bit-identical to the event loop: per-region state
  isolated into ``RegionShard`` objects, cross-region chain hops
  reconciled with bounded exchange rounds; ``replay_slot`` runs it as
  one region;
* :mod:`repro.runtime.cluster` — edge nodes with FIFO compute queues,
  network transfers over the substrate topology, a master that dispatches
  requests along their routed chains and records latency, all on the
  cluster's own deterministic discrete-event loop;
* :mod:`repro.runtime.simulator` — the time-slotted online driver:
  mobility moves users each slot, the provisioning algorithm re-runs,
  and the cluster replays the slot's requests;
* :mod:`repro.runtime.metrics` — latency aggregation (mean/median/max
  per slot, percentiles) matching the paper's reporting;
* :mod:`repro.runtime.failures` — slot-level node outages degraded out
  of the solvable state before each provision;
* :mod:`repro.runtime.resilience` — request-level fault injection
  (degraded links, instance crashes) and the retry / hedging / timeout /
  shedding policies that absorb them;
* :mod:`repro.runtime.autoscale` — the reactive feedback-control loop
  over the serverless pools: utilization/queueing monitoring, hysteresis
  scaling rules with cooldowns, warm-pool sizing, and the pure-reactive
  provisioning baseline (docs/AUTOSCALING.md).

The full runtime model is documented in ``docs/RUNTIME.md``.
"""

from repro.runtime.serverless import InstancePool, ServerlessConfig
from repro.runtime.cluster import SimulatedCluster, RequestOutcome
from repro.runtime.replay import ReplayResult
from repro.runtime.shard import (
    RegionMap,
    RegionShard,
    ShardStats,
    ShardedReplayResult,
    replay_slot,
    replay_slot_sharded,
)
from repro.runtime.autoscale import (
    AutoscaleConfig,
    Autoscaler,
    ScalingAction,
    ScalingPolicy,
    StaticProvisioner,
    UtilizationMonitor,
)
from repro.runtime.simulator import OnlineSimulator, SlotRecord, OnlineTraceResult
from repro.runtime.metrics import LatencyRecorder, summarize_latencies
from repro.runtime.failures import DegradationPolicy, OutageSchedule, degrade_instance
from repro.runtime.resilience import (
    FaultConfig,
    FaultInjector,
    ResiliencePolicy,
    SlotFaults,
    shed_indices,
)

__all__ = [
    "InstancePool",
    "ServerlessConfig",
    "SimulatedCluster",
    "RequestOutcome",
    "ReplayResult",
    "replay_slot",
    "RegionMap",
    "RegionShard",
    "ShardStats",
    "ShardedReplayResult",
    "replay_slot_sharded",
    "AutoscaleConfig",
    "Autoscaler",
    "ScalingAction",
    "ScalingPolicy",
    "StaticProvisioner",
    "UtilizationMonitor",
    "OnlineSimulator",
    "SlotRecord",
    "OnlineTraceResult",
    "LatencyRecorder",
    "summarize_latencies",
    "OutageSchedule",
    "DegradationPolicy",
    "degrade_instance",
    "FaultConfig",
    "FaultInjector",
    "SlotFaults",
    "ResiliencePolicy",
    "shed_indices",
]
