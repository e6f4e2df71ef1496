"""Tests for repro.cli (command-line interface)."""

import pytest

from repro.cli import build_parser, main, make_solver
from repro.core import SoCL
from repro.core.online import OnlineSoCL
from repro.baselines import (
    GreedyCombineOG,
    JointDeploymentRouting,
    OptimalSolver,
    RandomProvisioning,
)


class TestMakeSolver:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("socl", SoCL),
            ("socl-online", OnlineSoCL),
            ("rp", RandomProvisioning),
            ("jdr", JointDeploymentRouting),
            ("gcog", GreedyCombineOG),
            ("opt", OptimalSolver),
        ],
    )
    def test_all_names(self, name, cls):
        assert isinstance(make_solver(name), cls)

    def test_case_insensitive(self):
        assert isinstance(make_solver("SoCL"), SoCL)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown solver"):
            make_solver("magic")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.servers == 10 and args.users == 40
        assert args.solver == "socl"

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.servers == 16 and args.users == 30

    def test_bad_jobs_rejected_at_parse(self):
        for argv in (["figure", "fig8"], ["sweep"], ["autoscale"], ["resilience"]):
            assert build_parser().parse_args(argv + ["--jobs", "-1"]).jobs == -1
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv + ["--jobs", "-5"])


class TestCommands:
    def test_solve(self, capsys):
        rc = main(["solve", "--servers", "6", "--users", "8", "--placement"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "objective" in out
        assert "feasible  : True" in out
        assert "placement :" in out

    def test_solve_opt(self, capsys):
        rc = main(
            ["solve", "--servers", "5", "--users", "3", "--solver", "opt"]
        )
        assert rc == 0
        assert "objective" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(
            [
                "compare",
                "--servers", "6",
                "--users", "8",
                "--solvers", "rp", "socl",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "RP" in out and "SoCL" in out

    def test_figure_fig4(self, capsys):
        rc = main(["figure", "fig4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "peak-to-mean" in out

    def test_figure_fig3(self, capsys):
        rc = main(["figure", "fig3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max similarity" in out

    def test_figure_unknown(self, capsys):
        rc = main(["figure", "fig99"])
        assert rc == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_trace_with_failures(self, capsys):
        rc = main(
            [
                "trace",
                "--servers", "8",
                "--users", "6",
                "--slots", "2",
                "--fail-prob", "0.2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "mean delay" in out
        assert "cold starts" in out

    def test_dataset(self, capsys):
        rc = main(["dataset"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "eshoponcontainers" in out
        assert len(out.strip().splitlines()) == 20


class TestSweepCommand:
    def test_sweep(self, capsys):
        rc = main(
            [
                "sweep",
                "--servers", "6",
                "--users", "8",
                "--seeds", "2",
                "--solvers", "rp", "socl",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "objective_mean" in out
        assert "win rate" in out

    def test_report_single_figure(self, capsys, tmp_path):
        out_file = tmp_path / "r.md"
        rc = main(["report", "--only", "fig4", "--output", str(out_file)])
        assert rc == 0
        text = out_file.read_text(encoding="utf-8")
        assert "Fig. 4" in text

    def test_report_unknown_figure(self, capsys):
        rc = main(["report", "--only", "fig99"])
        assert rc == 2


class TestResilienceCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["resilience"])
        assert args.intensities == [0.0, 0.1, 0.2, 0.4]
        assert args.retries == 2
        assert not args.no_policy

    def test_autoscale_parser_defaults(self):
        args = build_parser().parse_args(["autoscale"])
        assert args.modes == ["socl", "socl+as", "reactive"]
        assert args.traffics == ["diurnal", "bursty"]
        assert args.json is None

    def test_autoscale_runs(self, capsys, tmp_path):
        out_file = tmp_path / "as.json"
        rc = main(
            [
                "autoscale",
                "--servers", "6",
                "--users", "10",
                "--slots", "2",
                "--modes", "socl", "reactive",
                "--traffics", "diurnal",
                "--json", str(out_file),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "instance_seconds" in out
        assert "AS-reactive" in out
        import json

        rows = json.loads(out_file.read_text(encoding="utf-8"))
        assert {r["mode"] for r in rows} == {"socl", "reactive"}

    def test_resilience_runs(self, capsys):
        rc = main(
            [
                "resilience",
                "--servers", "6",
                "--users", "10",
                "--slots", "2",
                "--intensities", "0.0", "0.3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "completion_rate" in out
        assert "SoCL-Online" in out
        assert "RP" in out and "JDR" in out
        # one row per (intensity, algorithm)
        assert out.count("SoCL-Online") >= 2

    def test_no_policy_flag(self, capsys):
        rc = main(
            [
                "resilience",
                "--servers", "6",
                "--users", "10",
                "--slots", "2",
                "--intensities", "0.3",
                "--no-policy",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "policy off" in out

    def test_multi_seed_aggregates(self, capsys):
        rc = main(
            [
                "resilience",
                "--servers", "6",
                "--users", "8",
                "--slots", "2",
                "--intensities", "0.2",
                "--seeds", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "mean" in out  # aggregated table present
