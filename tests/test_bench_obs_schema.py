"""Schema check for the committed BENCH_obs.json artifact.

The overhead benchmark needs a paired pre-PR worktree and quiet timing,
so CI validates the published document instead: well-formed, internally
consistent, and its acceptance criterion — disabled-mode overhead below
2% of the uninstrumented baseline — actually holds in the committed
numbers.  Regenerate the document on a quiet host, paired against an
uninstrumented source tree:

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \\
        --json BENCH_obs.json --baseline-src <uninstrumented tree>/src
"""

import json
import pathlib

import pytest

DOC_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs.json"

STAT_KEYS = {"min", "max", "mean", "median", "stddev", "rounds"}


@pytest.fixture(scope="module")
def doc():
    if not DOC_PATH.exists():
        pytest.skip("BENCH_obs.json not present")
    with open(DOC_PATH) as fh:
        return json.load(fh)


def test_schema_header(doc):
    assert doc["schema"] == "bench-obs/2"
    assert isinstance(doc["description"], str) and doc["description"]
    assert doc["command"].startswith("PYTHONPATH=src python benchmarks/")
    scenario = doc["scenario"]
    assert scenario["n_servers"] >= 1
    assert scenario["n_users"] >= 1


def test_mode_stats(doc):
    modes = doc["benchmarks"]
    assert {"disabled", "enabled"} <= set(modes)
    for mode, stats in modes.items():
        assert STAT_KEYS <= set(stats), mode
        assert 0.0 < stats["min"] <= stats["median"] <= stats["max"]
        assert stats["rounds"] >= 5
        assert stats["stddev"] >= 0.0


def test_overhead_consistent_with_medians(doc):
    modes = doc["benchmarks"]
    if "uninstrumented" in modes:
        derived = (
            modes["disabled"]["median"] / modes["uninstrumented"]["median"]
            - 1.0
        ) * 100.0
        assert doc["disabled_overhead_pct"] == pytest.approx(derived, rel=1e-9)
    derived = (
        modes["enabled"]["median"] / modes["disabled"]["median"] - 1.0
    ) * 100.0
    assert doc["enabled_overhead_pct"] == pytest.approx(derived, rel=1e-9)


def test_acceptance_disabled_overhead_below_2pct(doc):
    assert doc["acceptance_targets"]["disabled_overhead_pct_max"] == 2.0
    assert "uninstrumented" in doc["benchmarks"], (
        "BENCH_obs.json must be generated with --baseline-src so the "
        "disabled-vs-uninstrumented overhead is recorded"
    )
    assert doc["disabled_overhead_pct"] < 2.0
