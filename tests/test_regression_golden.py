"""Golden-result regression suite (``tests/reference_regression.py``).

The committed ``tests/golden_results.json`` pins SoCL's headline numbers
on three canonical scenarios.  Objective/latency may silently *improve*
(decrease); any increase beyond 1 % fails here and requires a deliberate
golden refresh, run from the repository root
(``PYTHONPATH=src python -c "from tests.reference_regression import
snapshot, save_golden; save_golden(snapshot(), 'tests/golden_results.json')"``).
"""

from pathlib import Path

import pytest

from tests.reference_regression import (
    Drift,
    GOLDEN_SCENARIOS,
    compare,
    load_golden,
    save_golden,
    snapshot,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_results.json"


class TestGoldenFile:
    def test_committed_and_loadable(self):
        values = load_golden(GOLDEN_PATH)
        assert set(values) == set(GOLDEN_SCENARIOS)
        for metrics in values.values():
            assert {"objective", "cost", "latency_sum", "instances"} <= set(metrics)

    def test_version_guard(self, tmp_path):
        bad = tmp_path / "g.json"
        bad.write_text('{"version": 99, "values": {}}', encoding="utf-8")
        with pytest.raises(ValueError, match="version"):
            load_golden(bad)

    def test_round_trip(self, tmp_path):
        values = load_golden(GOLDEN_PATH)
        out = tmp_path / "copy.json"
        save_golden(values, out)
        assert load_golden(out) == values


class TestNoRegression:
    @pytest.fixture(scope="class")
    def current(self):
        return snapshot()

    def test_objectives_have_not_regressed(self, current):
        golden = load_golden(GOLDEN_PATH)
        drifts = compare(golden, current, rel_tolerance=0.01)
        regressions = [
            d
            for d in drifts
            if d.metric in ("objective", "latency_sum") and d.regressed
        ]
        assert not regressions, (
            "objective regressions vs golden: "
            + "; ".join(
                f"{d.scenario}.{d.metric} {d.golden:.1f}→{d.current:.1f}"
                for d in regressions
            )
        )

    def test_costs_within_budget_regime(self, current):
        golden = load_golden(GOLDEN_PATH)
        for scenario, metrics in current.items():
            # cost may shift but must stay within the same budget regime
            assert metrics["cost"] <= 6000.0 + 1e-6
            assert metrics["cost"] >= 0.5 * golden[scenario]["cost"]


class TestCompareMechanics:
    def test_no_drift_on_identity(self):
        values = load_golden(GOLDEN_PATH)
        assert compare(values, values) == []

    def test_drift_detected(self):
        golden = {"s": {"objective": 100.0}}
        current = {"s": {"objective": 110.0}}
        drifts = compare(golden, current)
        assert len(drifts) == 1
        assert drifts[0].regressed
        assert drifts[0].relative == pytest.approx(0.1)

    def test_improvement_not_regression(self):
        drift = Drift("s", "objective", golden=100.0, current=90.0)
        assert not drift.regressed

    def test_missing_scenario_raises(self):
        with pytest.raises(KeyError, match="missing scenario"):
            compare({"s": {"objective": 1.0}}, {})

    def test_missing_metric_raises(self):
        with pytest.raises(KeyError, match="missing metric"):
            compare({"s": {"objective": 1.0}}, {"s": {}})

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            compare({}, {}, rel_tolerance=-1.0)
