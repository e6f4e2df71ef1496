"""Per-layer ledger for a traced run, recorded from outside the program.

Each layer is one module of ``repro``, timed at its public entry points.
:meth:`LayerProbe.install` replaces those entry points (on the module or
class the simulator actually calls them through) with wrappers that count
calls and open a span of the layer's name on the run's
:class:`repro.obs.Tracer`, nested with the program's own spans.
:func:`ledger` then turns the span tree into self seconds per layer: a
layer span's duration minus the durations of the nearest layer spans
nested in it, skipping the program's spans in between.  The layers' self
seconds partition the time they cover, so ``OnlineSimulator.run`` wall
minus their sum is the unattributed remainder.

Only the traced child installs the wrappers; the untraced children that
measure the end-to-end metrics run the program without them.
"""

from __future__ import annotations

import importlib
from collections import Counter
from typing import Callable, Optional

#: (layer, self-seconds metric, entry points as ``(module, "name")`` or
#: ``(module, "Class.method")``).  Where the simulator imported a callee
#: into its own namespace, the wrapper goes on the caller's name.
LAYERS: tuple[tuple[str, str, tuple[tuple[str, str], ...]], ...] = (
    ("workload.mobility", "workload.mobility.step_s", (
        ("repro.workload.mobility", "RandomWaypointMobility.step"),
    )),
    ("workload.users", "workload.users.generate_s", (
        ("repro.runtime.simulator", "generate_requests"),
    )),
    ("model.instance", "model.instance.build_s", (
        ("repro.runtime.simulator", "ProblemInstance"),
    )),
    ("core.online", "core.online.solve_s", (
        ("repro.core.online", "OnlineSoCL.solve"),
        ("repro.core.socl", "SoCL.solve"),
    )),
    ("core.partition", "core.partition.s", (
        ("repro.core.socl", "initial_partition"),
        ("repro.core.online", "initial_partition"),
    )),
    ("core.preprovision", "core.preprovision.s", (
        ("repro.core.socl", "preprovision"),
    )),
    ("core.combination", "core.combination.s", (
        ("repro.core.socl", "multi_scale_combination"),
    )),
    ("core.storage", "core.storage.s", (
        ("repro.core.online", "storage_plan"),
        ("repro.core.combination", "storage_plan"),
    )),
    ("model.routing", "model.routing.s", (
        ("repro.core.socl", "optimal_routing"),
        ("repro.core.socl", "greedy_routing"),
        ("repro.core.online", "optimal_routing"),
        ("repro.core.online", "greedy_routing"),
        ("repro.core.online", "partial_reroute"),
    )),
    ("model.objective", "model.objective.s", (
        ("repro.core.socl", "evaluate"),
        ("repro.core.socl", "feasibility_report"),
        ("repro.baselines.base", "evaluate"),
        ("repro.baselines.base", "feasibility_report"),
    )),
    ("runtime.serverless", "runtime.serverless.pool_s", (
        ("repro.runtime.simulator", "InstancePool"),
        ("repro.runtime.serverless", "InstancePool.update_placement"),
    )),
    ("runtime.resilience", "runtime.resilience.draw_s", (
        ("repro.runtime.resilience", "FaultInjector.for_slot"),
        ("repro.runtime.simulator", "shed_indices"),
    )),
    ("runtime.cluster.replay", "runtime.cluster.replay_s", (
        ("repro.runtime.cluster", "SimulatedCluster.replay"),
    )),
    ("runtime.shard", "runtime.shard.replay_s", (
        ("repro.runtime.shard", "replay_slot_sharded"),
    )),
    ("runtime.replay", "runtime.replay.replay_s", (
        ("repro.runtime.cluster", "replay_slot"),
    )),
    ("runtime.cluster.run", "runtime.cluster.run_s", (
        ("repro.runtime.cluster", "SimulatedCluster.run"),
    )),
    ("runtime.metrics", "runtime.metrics.record_s", (
        ("repro.runtime.metrics", "LatencyRecorder.record_slot"),
    )),
)

LAYER_NAMES = frozenset(layer for layer, _, _ in LAYERS)

#: Calls counted without a span: every full SoCL solve goes through
#: ``solve_socl``, whichever solver object asked for it.
FULL_SOLVE_ENTRIES = (
    ("repro.core.online", "solve_socl"),
    ("repro.core.socl", "solve_socl"),
)

#: Program counters copied into the ledger under the benchmark's names.
COPIED_COUNTERS = {
    "core.combination.serial_merges": "combination.serial_merges",
    "core.combination.merges_accepted": "combination.merges_accepted",
    "core.combination.zeta_cache_hits": "combination.zeta_cache_hits",
    "core.combination.zeta_cache_rebuilds": "combination.zeta_cache_rebuilds",
    "runtime.shard.rounds": "runtime.shard.rounds",
    "runtime.shard.exchange_rounds": "runtime.shard.exchange_rounds",
    "runtime.shard.boundary_invocations": "runtime.shard.boundary_invocations",
    "runtime.shard.start_values_exchanged": "runtime.shard.start_values_exchanged",
    "runtime.replay_rounds": "runtime.replay_rounds",
    "runtime.retries": "runtime.retries",
    "runtime.hedges": "runtime.hedges",
    "runtime.timeouts": "runtime.timeouts",
    "runtime.failed": "runtime.failed",
    "runtime.shed": "runtime.shed",
}


def _resolve(module: str, name: str) -> tuple[object, str]:
    """The object holding ``name`` (a module or class) and its attribute."""
    owner: object = importlib.import_module(module)
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _wrapped(
    fn: Callable,
    layer: str,
    tracer,
    calls: Counter,
    declines: Optional[Counter],
) -> Callable:
    if tracer is None:
        def counted(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return counted

    def traced(*args, **kwargs):
        calls[layer] += 1
        with tracer.span(layer):
            result = fn(*args, **kwargs)
        if declines is not None and result is None:
            declines[layer] += 1
        return result

    return traced


class LayerProbe:
    """Wrappers installed on every layer entry point, and their counts.

    ``install`` patches the entry points in place for the rest of the
    process, which runs one traced pass and exits.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.calls: Counter = Counter()
        #: ``SimulatedCluster.replay`` returning ``None``: the fast path
        #: declined and the slot is replayed again by the event loop.
        self.declines: Counter = Counter()

    def install(self) -> None:
        for layer, _, entries in LAYERS:
            declines = (
                self.declines if layer == "runtime.cluster.replay" else None
            )
            for module, name in entries:
                self._patch(module, name, layer, self.tracer, declines)
        for module, name in FULL_SOLVE_ENTRIES:
            self._patch(module, name, "core.online.full_solves", None, None)

    def _patch(self, module, name, layer, tracer, declines) -> None:
        owner, attr = _resolve(module, name)
        fn = getattr(owner, attr)
        setattr(owner, attr, _wrapped(fn, layer, tracer, self.calls, declines))


def self_seconds(roots) -> dict[str, float]:
    """Self seconds per layer from a span forest (see module docstring)."""
    out: dict[str, float] = {layer: 0.0 for layer in LAYER_NAMES}
    stack = [(root, None) for root in roots]
    while stack:
        span, owner = stack.pop()
        if span.name in LAYER_NAMES:
            out[span.name] += span.duration
            if owner is not None:
                out[owner] -= span.duration
            owner = span.name
        stack.extend((child, owner) for child in span.children)
    return out


def ledger(
    probe: LayerProbe, counters: dict, run_wall: float
) -> dict[str, float]:
    """Per-layer metrics of one traced ``OnlineSimulator.run``.

    Self seconds and call count for every layer, the copied program
    counters, the replay accept ratio and the unattributed remainder.
    """
    selfs = self_seconds(probe.tracer.roots)
    out: dict[str, float] = {}
    for layer, metric, _ in LAYERS:
        out[metric] = selfs[layer]
        out[f"{layer}.calls"] = float(probe.calls[layer])
    full = probe.calls["core.online.full_solves"]
    out["core.online.full_solves"] = float(full)
    out["core.online.repairs"] = float(probe.calls["core.online"] - full)
    out["workload.users.requests"] = float(
        counters.get("runtime.requests_total", 0)
    )
    replays = probe.calls["runtime.cluster.replay"]
    declined = probe.declines["runtime.cluster.replay"]
    out["runtime.cluster.replay_declines"] = float(declined)
    out["runtime.cluster.replay_accept_ratio"] = (
        (replays - declined) / replays if replays else 0.0
    )
    for name, source in COPIED_COUNTERS.items():
        out[name] = float(counters.get(source, 0))
    attributed = sum(selfs.values())
    out["ledger.wall_s"] = run_wall
    out["ledger.unattributed_s"] = run_wall - attributed
    out["ledger.unattributed_frac"] = (
        (run_wall - attributed) / run_wall if run_wall > 0 else 0.0
    )
    return out
