"""Experiment harness: paper scenarios, algorithm sweeps, figure data.

Each figure/table of the paper's evaluation (§V) has a generator in
:mod:`repro.experiments.figures` returning structured rows; the
benchmarks under ``benchmarks/`` call these at laptop scale, and
``examples/paper_scale.py`` runs the full-size versions.  The mapping
from figure to generator is indexed in DESIGN.md §4.
"""

from repro.experiments.scenarios import (
    ScenarioParams,
    build_scenario,
    paper_scenario,
    small_scenario,
)
from repro.experiments.harness import (
    AlgorithmRow,
    compare_algorithms,
    sweep,
    default_solvers,
)
from repro.experiments.reporting import format_table, rows_to_csv
from repro.experiments.ascii_plots import (
    sparkline,
    bar_chart,
    line_panel,
    histogram,
)
from repro.experiments.sweeps import (
    SweepCell,
    grid_sweep,
    aggregate,
    win_rate,
)
from repro.experiments.report import generate_report
from repro.experiments import figures

__all__ = [
    "ScenarioParams",
    "build_scenario",
    "paper_scenario",
    "small_scenario",
    "AlgorithmRow",
    "compare_algorithms",
    "sweep",
    "default_solvers",
    "format_table",
    "rows_to_csv",
    "sparkline",
    "bar_chart",
    "line_panel",
    "histogram",
    "SweepCell",
    "grid_sweep",
    "aggregate",
    "win_rate",
    "generate_report",
    "figures",
]
