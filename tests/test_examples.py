"""Smoke tests running the (fast) example scripts end to end.

The examples are user-facing deliverables; these tests pin that they
execute cleanly against the current API.  Long-running examples
(`paper_scale.py`, the full mobility trace) are exercised at reduced
scale through their underlying generators elsewhere.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "=== SoCL result ===" in out
        assert "feasible: True" in out
        assert "per-request latency" in out

    def test_custom_application(self, capsys):
        out = run_example("custom_application.py", capsys)
        assert "video-analytics" not in out  # app name not printed directly
        assert "partitions per service" in out
        assert "final placement" in out
        assert "feasible: True" in out

    def test_online_outages(self, capsys):
        out = run_example("online_outages.py", capsys)
        assert "slot active down" in out
        rows = [r for r in map(str.split, out.splitlines()) if r and r[0].isdigit()]
        assert [int(r[0]) for r in rows] == list(range(10))
        assert {r[3] for r in rows} <= {"full", "incremental"}
        # the diurnal trace drives how many users are active
        assert len({int(r[1]) for r in rows}) > 1
        assert "per-slot mean latency:" in out

    def test_examples_exist(self):
        expected = {
            "quickstart.py",
            "compare_baselines.py",
            "online_mobility_trace.py",
            "custom_application.py",
            "online_outages.py",
            "paper_scale.py",
        }
        present = {p.name for p in EXAMPLES.glob("*.py")}
        assert expected <= present

    def test_examples_have_docstrings(self):
        import ast

        for path in EXAMPLES.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            assert ast.get_docstring(tree), f"{path.name} lacks a docstring"

    def test_examples_have_main_guard(self):
        for path in EXAMPLES.glob("*.py"):
            assert '__main__' in path.read_text(encoding="utf-8"), (
                f"{path.name} lacks a __main__ guard"
            )
