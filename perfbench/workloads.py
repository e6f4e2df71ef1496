"""The benchmark's workloads: fig-10 trace shapes for ``OnlineSimulator.run``.

Every workload uses the eshop application, ``data_scale=5.0`` and
``weight=0.5`` on a fixed stadium topology (topology seed 0); the
benchmark's ``--seed`` drives the users, their mobility, the request
stream and, where present, the fault draws.  The load is an open loop in
simulated time: each slot's arrivals are spread uniformly across the
slot whatever the completions.  Execution knobs (``shard_executor``,
``pipeline``, ``warm_start``) stay at their constructor defaults.

``SMOKE`` shrinks each workload to a run of a few seconds with the same
code paths; the self-tests use it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    """One benchmark input: topology, population, solver and fault model."""

    name: str
    servers: int
    budget: float
    users: int
    #: ``"online"`` for :class:`repro.core.online.OnlineSoCL`, ``"socl"``
    #: for the paper's full Alg. 1-5 :class:`repro.core.socl.SoCL`.
    solver: str
    shards: int
    #: Fault intensity of :class:`repro.runtime.resilience.FaultInjector`
    #: plus the default ``ResiliencePolicy``; 0.0 runs fault-free.
    fault_intensity: float
    #: Slots in one measured pass of ``OnlineSimulator.run``.
    slots: int
    #: Layers the traced run must see called at least once.
    expect: tuple[str, ...]
    #: One-line rationale, mirrored in BENCHMARK.json; the layers each
    #: workload stresses and bypasses are recorded in WORKLOADS.md.
    why: str


_COMMON = (
    "workload.mobility",
    "workload.users",
    "model.instance",
    "core.online",
    "core.partition",
    "core.preprovision",
    "core.combination",
    "core.storage",
    "model.routing",
    "model.objective",
    "runtime.serverless",
    "runtime.cluster.replay",
    "runtime.metrics",
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig10-sharded",
            servers=16,
            budget=6000.0,
            users=2500,
            solver="socl",
            shards=4,
            fault_intensity=0.0,
            slots=24,
            expect=_COMMON + ("runtime.shard",),
            why=(
                "fig-10 trace as the paper runs it, SoCL every slot, on 16 "
                "servers with 2.5k users and 4 region shards: the sharded "
                "fixpoint replay beside generation and solve"
            ),
        ),
        Workload(
            name="socl-full-32",
            servers=32,
            budget=6000.0,
            users=2500,
            solver="socl",
            shards=1,
            fault_intensity=0.0,
            slots=24,
            expect=_COMMON + ("runtime.replay",),
            why=(
                "paper's full Alg. 1-5 SoCL every slot on 32 servers (2.5k "
                "users, budget 6000); Alg. 3-5 dominates, flat replay is "
                "small: the case that shows combination and storage work"
            ),
        ),
        Workload(
            name="faults-1500",
            servers=16,
            budget=6000.0,
            users=1500,
            solver="online",
            shards=1,
            fault_intensity=0.4,
            slots=40,
            expect=_COMMON + ("runtime.resilience", "runtime.cluster.run"),
            why=(
                "faults at intensity 0.4 with the default ResiliencePolicy: "
                "every slot declines the fixpoint and runs the event loop, "
                "with retries and hedges; unsaturated"
            ),
        ),
    )
}

#: Smoke sizes: same code paths as the full workloads, seconds to run.
SMOKE: dict[str, Workload] = {
    "fig10-sharded": replace(WORKLOADS["fig10-sharded"], users=600, slots=2),
    "socl-full-32": replace(WORKLOADS["socl-full-32"], users=600, slots=2),
    "faults-1500": replace(WORKLOADS["faults-1500"], users=400, slots=4),
}


def get(name: str, size: str = "full") -> Workload:
    """The workload called ``name`` at ``size`` (``"full"`` or ``"smoke"``)."""
    table = WORKLOADS if size == "full" else SMOKE
    if name not in table:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(table)}"
        )
    return table[name]
