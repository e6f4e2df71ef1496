"""Tracing is observational: enabling it must not change any result.

The contract enforced here backs the ``--trace`` CLI flag and the CI
traced smoke step: running the pipeline under an enabled tracer yields
bit-identical placements, routings and objectives to an untraced run on
both the fig-7 (offline solve) and fig-9 (online cluster simulation)
experiment shapes, the emitted JSONL validates record-by-record, and a
traced parallel sweep reports the same counters as a traced serial one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SoCL
from repro.experiments.figures import fig8_baselines
from repro.experiments.harness import sweep
from repro.experiments.scenarios import ScenarioParams, build_scenario
from repro.experiments.sweeps import grid_sweep
from repro.microservices import eshop_application
from repro.model import ProblemConfig
from repro.network import stadium_topology
from repro.obs import Tracer, use_tracer, validate_jsonl
from repro.runtime import OnlineSimulator
from repro.workload import WorkloadSpec


def _solve(traced: bool):
    instance = build_scenario(ScenarioParams(n_servers=8, n_users=15, seed=0))
    if traced:
        tracer = Tracer("on")
        with use_tracer(tracer):
            return SoCL().solve(instance), tracer
    return SoCL().solve(instance), None


class TestBitIdenticalFig7:
    """Offline solve (fig-7 scenario shape), tracing on vs off."""

    def test_solution_identical(self):
        off, _ = _solve(traced=False)
        on, tracer = _solve(traced=True)
        assert on.placement == off.placement
        assert np.array_equal(on.routing.assignment, off.routing.assignment)
        assert on.report.objective == off.report.objective
        assert on.report.cost == off.report.cost
        assert on.stats == off.stats
        assert sorted(on.stage_times) == sorted(off.stage_times)
        # and the traced run actually recorded the pipeline
        assert tracer.counters["socl.solves"] == 1
        names = {s.name for s in tracer.roots[0].children}
        assert {"partition", "preprovision", "combination", "routing"} <= names
        # the serial descent's router publishes its work: one full route
        # of every request, then only the rows a candidate could move
        n_requests = on.routing.assignment.shape[0]
        assert tracer.counters["combination.router_rows_rerouted"] >= n_requests
        assert tracer.counters["combination.router_services_rerouted"] > 0
        assert "combination.router_services_cached" in tracer.counters


class TestBitIdenticalFig9:
    """Online cluster simulation (fig-9 shape), tracing on vs off."""

    def _run(self, traced: bool):
        sim = OnlineSimulator(
            stadium_topology(8, seed=0),
            eshop_application(),
            ProblemConfig(weight=0.5, budget=4000.0),
            WorkloadSpec(n_users=12, data_scale=5.0),
            seed=0,
        )
        if traced:
            tracer = Tracer("on")
            with use_tracer(tracer):
                return sim.run(SoCL(), n_slots=3), tracer
        return sim.run(SoCL(), n_slots=3), None

    def test_trace_identical(self):
        off, _ = self._run(traced=False)
        on, tracer = self._run(traced=True)
        assert len(on.slots) == len(off.slots)
        for a, b in zip(on.slots, off.slots):
            assert a.n_requests == b.n_requests
            assert a.objective == b.objective
            assert a.cost == b.cost
            assert a.mean_latency == b.mean_latency
            assert a.max_latency == b.max_latency
            assert a.cold_starts == b.cold_starts
            assert a.churn == b.churn
        assert np.array_equal(on.slot_means(), off.slot_means())
        # per-slot telemetry adds up across the trace
        assert tracer.counters["runtime.slots"] == 3
        total = sum(s.n_requests for s in on.slots)
        assert tracer.counters["runtime.requests_total"] == total


class TestCliTrace:
    def test_solve_writes_valid_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "trace.jsonl")
        rc = main(
            ["solve", "--servers", "6", "--users", "8", "--trace", out]
        )
        assert rc == 0
        assert validate_jsonl(out) > 0
        err = capsys.readouterr().err
        assert "socl.solve" in err  # span tree summary printed to stderr
        assert "wrote" in err

    def test_log_level_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--log-level", "chatty"])


class TestTracedParallelSweep:
    """Traced ``n_jobs=2`` runs report the counters of traced serial ones."""

    @staticmethod
    def _traced(run, n_jobs):
        tracer = Tracer(f"jobs={n_jobs}")
        with use_tracer(tracer):
            out = run(n_jobs)
        return out, tracer

    def test_parallel_counters_match_serial(self):
        instances = [
            (
                {"n_users": nu},
                build_scenario(ScenarioParams(n_servers=6, n_users=nu, seed=0)),
            )
            for nu in (6, 10)
        ]
        serial_rows, serial_tracer = self._traced(
            lambda n: sweep(instances, n_jobs=n), 1
        )
        parallel_rows, parallel_tracer = self._traced(
            lambda n: sweep(instances, n_jobs=n), 2
        )
        assert serial_tracer.counters == parallel_tracer.counters
        assert [r.algorithm for r in serial_rows] == [
            r.algorithm for r in parallel_rows
        ]
        assert [r.objective for r in serial_rows] == [
            r.objective for r in parallel_rows
        ]
        # stage timings came back from the workers for the SoCL rows
        socl_rows = [r for r in parallel_rows if r.algorithm == "SoCL"]
        assert socl_rows
        assert all("partition" in r.stage_times for r in socl_rows)
        # a cell's root is named after the cell function and its index;
        # baselines open no span, so only the SoCL cells (last of each
        # four-solver lineup) graft one
        assert [r.name for r in serial_tracer.roots] == [
            r.name for r in parallel_tracer.roots
        ] == ["_solve_cell[3]", "_solve_cell[7]"]

    @pytest.mark.parametrize(
        "run",
        [
            lambda n: grid_sweep(
                axes={"n_users": [6, 10]},
                seeds=[0],
                solver_factories={"SoCL": SoCL},
                base=ScenarioParams(n_servers=6),
                n_jobs=n,
            ),
            lambda n: fig8_baselines(
                user_scales=(8, 12), n_servers=6, include_gcog=False, n_jobs=n
            ),
        ],
        ids=["grid_sweep", "fig8_baselines"],
    )
    def test_generator_counters_match_serial(self, run):
        serial, serial_tracer = self._traced(run, 1)
        parallel, parallel_tracer = self._traced(run, 2)
        assert serial_tracer.counters
        assert serial_tracer.counters == parallel_tracer.counters
        assert [r.name for r in serial_tracer.roots] == [
            r.name for r in parallel_tracer.roots
        ]
        assert len(serial) == len(parallel)


class TestTraceReport:
    """``repro report <trace.jsonl>`` re-renders a recorded trace."""

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        from repro.cli import main

        out = str(tmp_path_factory.mktemp("trace") / "run.jsonl")
        rc = main([
            "trace", "--servers", "6", "--users", "10", "--slots", "2",
            "--shards", "3", "--trace", out,
        ])
        assert rc == 0
        return out

    def test_load_trace_groups_records(self, trace_path):
        from repro.experiments.reporting import load_trace
        from repro.obs import StreamingHistogram

        trace = load_trace(trace_path)
        assert trace["meta"]["schema"] == 2
        assert trace["spans"] and trace["counters"]
        hists = trace["hists"]
        assert "runtime.latency.completion" in hists
        assert isinstance(hists["runtime.latency.completion"], StreamingHistogram)
        assert hists["runtime.latency.completion"].count > 0
        # the CLI attaches a flight recorder to every --trace run
        assert len(trace["snapshots"]) == 2
        assert trace["snapshots"][0]["data"]["rss_kb"] > 0

    def test_report_renders_all_sections(self, trace_path, capsys):
        from repro.cli import main

        assert main(["report", trace_path]) == 0
        out = capsys.readouterr().out
        assert "trace report:" in out and "schema 2" in out
        # histogram quantile table
        assert "runtime.latency.completion" in out and "p99" in out
        # per-shard slot timeline (3 shards, one row per slot)
        assert "per-shard replay time" in out
        assert "shard2 ms" in out and "rounds" in out
        # flight recorder timeline and the counter catalog
        assert "flight recorder" in out and "rss_kb" in out
        assert "runtime.shard.node_sims" in out

    def test_report_to_file(self, trace_path, tmp_path, capsys):
        from repro.cli import main

        dest = str(tmp_path / "report.txt")
        assert main(["report", trace_path, "--output", dest]) == 0
        with open(dest, encoding="utf-8") as fh:
            assert "flight recorder" in fh.read()

    def test_report_rejects_invalid_trace(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "mystery"}\n', encoding="utf-8")
        assert main(["report", str(bad)]) == 2
        assert "meta" in capsys.readouterr().err

    def test_report_rejects_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2

    def test_shard_timeline_empty_without_shards(self):
        from repro.experiments.reporting import format_shard_timeline

        spans = [
            {"type": "span", "name": "slot", "path": "slot", "depth": 0,
             "start": 0.0, "duration": 1.0, "attrs": {"index": 0}},
        ]
        assert format_shard_timeline(spans) == ""
