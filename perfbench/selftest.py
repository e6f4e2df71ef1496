"""Self-tests of the benchmark, at smoke size (about a minute in all).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

They check that every workload runs end to end in both modes, that the
result line matches the schema and ``BENCHMARK.json``, that runs with
different seeds trip the digest comparison, and the ledger and
best-of-N segment arithmetic.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_smoke(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.stdout, proc.stderr
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def _check_result(result: dict, expected_units: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0
    metrics = result["metrics"]
    assert set(metrics) == set(expected_units)
    for name, m in metrics.items():
        assert set(m) == {"value", "unit"}, name
        assert m["unit"] == expected_units[name], name
        assert isinstance(m["value"], (int, float)), name
        assert math.isfinite(m["value"]), name


def test_benchmark_json_matches_the_code():
    doc = _benchmark_json()
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == dict(
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == (
        run.per_layer_units()
    )


def test_smoke_workloads_untraced_and_traced():
    doc = _benchmark_json()
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    for name in workloads.SMOKE:
        for trace, units in ((0, end_to_end), (1, per_layer)):
            code, result = _run_smoke(name, trace)
            assert code == 0, (name, trace, result)
            _check_result(result, units)
        # every expected layer recorded calls (the child enforces it too)
        for layer in workloads.get(name, "smoke").expect:
            assert result["metrics"][f"{layer}.calls"]["value"] > 0


def test_different_seeds_trip_the_digest_comparison():
    passes = []
    for seed in (1, 2):
        args = SimpleNamespace(
            workload="faults-1500", seed=seed, size="smoke"
        )
        passes.append(run.spawn("run", args, remaining=120.0))
    assert passes[0]["violations"] == passes[1]["violations"] == []
    assert run.check_digests(passes, "k", {})
    assert not run.check_digests(passes[:1], "k", {})
    # a digest recorded earlier for the same key must also match
    assert run.check_digests(passes[:1], "k", {"k": passes[1]["digest"]})


def test_ledger_self_seconds_skip_program_spans():
    from repro.obs import Span

    inner = Span("core.partition", duration=1.0)
    program = Span("socl.solve", duration=3.0, children=[inner])
    outer = Span("core.online", duration=4.0, children=[program])
    selfs = layers.self_seconds([Span("slot", duration=5.0, children=[outer])])
    assert selfs["core.online"] == 3.0
    assert selfs["core.partition"] == 1.0
    assert sum(selfs.values()) == 4.0


def test_best_wall_takes_each_segments_fastest_pass():
    passes = [
        {"segments_s": [1.0, 4.0, 2.0], "slot_segments_s": [5.0, 2.0]},
        {"segments_s": [1.5, 3.0, 2.5], "slot_segments_s": [4.5, 2.5]},
    ]
    assert run.best_wall(passes) == 1.0 + 3.0 + 2.0
    assert not run.check_segments(passes)
    # passes that collected garbage differently fall back to slot cuts
    passes[1]["segments_s"] = [1.5, 3.0, 1.0, 1.5]
    assert run.best_wall(passes) == 4.5 + 2.0
    assert run.check_segments(passes + [{"slot_segments_s": [7.0]}])


def main() -> int:
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            t0 = time.monotonic()
            try:
                fn()
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"ok   {name} ({time.monotonic() - t0:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
