"""Golden-result regression tracking, the helper of the golden suite.

Algorithmic code is easy to break quietly: a refactor that flips a
tie-break changes objectives without failing any structural test.  This
module snapshots the headline numbers of canonical scenarios to a JSON
"golden" file and compares future runs against it:

    from tests.reference_regression import snapshot, compare, GOLDEN_SCENARIOS

    baseline = snapshot()                     # run the canonical set
    save_golden(baseline, "golden.json")
    ...
    drifts = compare(load_golden("golden.json"), snapshot())

``tests/test_regression_golden.py`` keeps a committed golden file honest:
objectives may only *improve* (decrease) silently; increases beyond the
tolerance fail the suite and force a deliberate golden update.  It is a
test helper: nothing under ``src/`` calls it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from repro.core import SoCL
from repro.experiments.scenarios import ScenarioParams, build_scenario

#: Canonical scenarios snapshotted for regression: small, medium, large.
GOLDEN_SCENARIOS: dict[str, ScenarioParams] = {
    "small": ScenarioParams(n_servers=6, n_users=10, seed=0),
    "medium": ScenarioParams(n_servers=10, n_users=40, seed=0),
    "large": ScenarioParams(n_servers=10, n_users=120, seed=0),
}

GOLDEN_VERSION = 1


def snapshot(solver_factory=SoCL) -> dict[str, dict[str, float]]:
    """Run the canonical scenarios; returns per-scenario headline values."""
    out: dict[str, dict[str, float]] = {}
    for name, params in GOLDEN_SCENARIOS.items():
        instance = build_scenario(params)
        result = solver_factory().solve(instance)
        out[name] = {
            "objective": float(result.report.objective),
            "cost": float(result.report.cost),
            "latency_sum": float(result.report.latency_sum),
            "instances": float(result.placement.total_instances),
        }
    return out


@dataclass(frozen=True)
class Drift:
    """One metric that moved between golden and current."""

    scenario: str
    metric: str
    golden: float
    current: float

    @property
    def relative(self) -> float:
        if self.golden == 0:
            return float("inf") if self.current else 0.0
        return (self.current - self.golden) / abs(self.golden)

    @property
    def regressed(self) -> bool:
        """Objective/latency increases are regressions; decreases are wins."""
        return self.relative > 0


def compare(
    golden: dict[str, dict[str, float]],
    current: dict[str, dict[str, float]],
    rel_tolerance: float = 1e-6,
) -> list[Drift]:
    """All metrics whose relative change exceeds ``rel_tolerance``."""
    if rel_tolerance < 0:
        raise ValueError(f"rel_tolerance must be non-negative, got {rel_tolerance}")
    drifts: list[Drift] = []
    for scenario, metrics in golden.items():
        got = current.get(scenario)
        if got is None:
            raise KeyError(f"current snapshot is missing scenario {scenario!r}")
        for metric, value in metrics.items():
            if metric not in got:
                raise KeyError(
                    f"current snapshot missing metric {metric!r} for {scenario!r}"
                )
            drift = Drift(scenario, metric, float(value), float(got[metric]))
            base = abs(drift.golden) or 1.0
            if abs(drift.current - drift.golden) / base > rel_tolerance:
                drifts.append(drift)
    return drifts


PathLike = Union[str, Path]


def save_golden(values: dict, path: PathLike) -> None:
    payload = {"version": GOLDEN_VERSION, "values": values}
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")


def load_golden(path: PathLike) -> dict[str, dict[str, float]]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("version") != GOLDEN_VERSION:
        raise ValueError(
            f"unsupported golden version {payload.get('version')!r} "
            f"(expected {GOLDEN_VERSION})"
        )
    return payload["values"]
