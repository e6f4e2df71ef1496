"""Schema check for the committed BENCH_shard.json artifact.

The benchmark itself is too heavy for CI; this validates that the
published document is well-formed, internally consistent, and that its
acceptance criteria hold, so a stale or hand-edited artifact fails fast.
"""

import json
import pathlib

import pytest

DOC_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_shard.json"

ENGINE_KEYS = {"wall_s_median", "wall_s_runs", "peak_rss_mb", "rounds", "digest"}


@pytest.fixture(scope="module")
def doc():
    if not DOC_PATH.exists():
        pytest.skip("BENCH_shard.json not present")
    with open(DOC_PATH) as fh:
        return json.load(fh)


def test_schema_header(doc):
    assert doc["schema"] == "bench-shard/4"
    assert isinstance(doc["description"], str) and doc["description"]
    assert doc["command"].startswith("PYTHONPATH=src python benchmarks/")
    cfg = doc["config"]
    assert cfg["shards"] >= 2
    assert cfg["repeats"] >= 1
    assert cfg["window_size"] > 0


def test_host_block(doc):
    host = doc["host"]
    assert host["cpu_count"] >= 1
    assert isinstance(host["platform"], str) and host["platform"]


def test_scales_rows(doc):
    scales = doc["scales"]
    assert len(scales) >= 2
    sizes = [row["n_users"] for row in scales]
    assert sizes == sorted(sizes)
    for row in scales:
        for engine in ("ref", "sharded"):
            m = row[engine]
            assert ENGINE_KEYS <= set(m)
            assert m["wall_s_median"] > 0
            assert len(m["wall_s_runs"]) == doc["config"]["repeats"]
            assert len(m["digest"]) == 64
        assert row["sharded"]["shards"] == doc["config"]["shards"]
        assert row["sharded"]["boundary_invocations"] >= 0
        assert row["sharded"]["exchange_rounds"] >= 0
        gen = row["generation"]
        assert gen["peak_rss_mb"] > 0
        assert gen["window_size"] == doc["config"]["window_size"]


def test_bit_identity_claimed_and_consistent(doc):
    for row in doc["scales"]:
        assert row["identical"] is True
        assert row["sharded"]["digest"] == row["ref"]["digest"]
        assert row["sharded"]["rounds"] == row["ref"]["rounds"]


def test_acceptance_criteria(doc):
    crit = doc["criteria"]
    largest = doc["scales"][-1]
    assert crit["speedup_at_largest_scale"] == largest["speedup"]
    assert crit["all_identical"] is True
    assert crit["gen_rss_within_2x"] is True
    assert (
        crit["gen_rss_largest_mb"]
        <= 2.0 * max(crit["gen_rss_smallest_mb"], 1.0)
    )


def test_speedup_recorded_without_gate(doc):
    """Each row's speedup is its one-region over sharded median wall
    time; the ratio is recorded, and no criterion gates on it."""
    for row in doc["scales"]:
        assert row["speedup"] == (
            row["ref"]["wall_s_median"] / row["sharded"]["wall_s_median"]
        )
    assert "speedup_ge_3x" not in doc["criteria"]


def test_pool_text_matches_numpy_scalar_repr():
    """The digest's pool text, built from Python floats, is the ``repr``
    of the sorted NumPy-scalar cell list every published digest hashed
    (NumPy >= 2 writes a float64 scalar as ``np.float64(...)``)."""
    import importlib.util

    import numpy as np

    from repro.model import Placement
    from repro.runtime import ServerlessConfig
    from repro.runtime.serverless import InstancePool

    if int(np.__version__.split(".")[0]) < 2:
        pytest.skip("the recorded text is NumPy 2's scalar repr")
    path = DOC_PATH.parent / "benchmarks" / "bench_shard.py"
    spec = importlib.util.spec_from_file_location("bench_shard", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    pool = InstancePool(Placement(np.ones((3, 4), dtype=bool)), ServerlessConfig())
    gen = np.random.default_rng(0)
    times = [0.0, 1e-7, 5.41, 123456.789, 2.0**60, gen.uniform(0, 1e4)]
    for (svc, node), t in zip([(0, 1), (2, 3), (1, 0), (0, 0), (2, 0), (1, 2)], times):
        pool.last_used[svc, node] = t
    svc, node = np.nonzero(~np.isnan(pool.last_used))
    old = repr(sorted(zip(zip(svc.tolist(), node.tolist()), pool.last_used[svc, node])))
    assert "np.float64(" in old
    assert bench._pool_text(pool) == old
