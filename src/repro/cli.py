"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``solve``    — run one algorithm on a paper scenario and print the
  result (placement, objective, feasibility);
* ``compare``  — run the full baseline lineup on one scenario;
* ``figure``   — regenerate a paper figure's data at a chosen scale
  (fig2 / fig3 / fig4 / fig7 / fig8 / fig9 / fig10);
* ``trace``    — the online mobility experiment with optional failure
  injection, printing the per-slot delay series as a sparkline;
* ``resilience`` — completion rate and p99 latency vs request-level
  fault intensity (instance crashes + link degradation) for SoCL-Online
  against the RP/JDR baselines, under a configurable
  retry/hedging/timeout/shedding policy;
* ``autoscale`` — static vs reactive provisioning comparison: plain
  SoCL, SoCL assisted by the feedback-control autoscaler, and a
  pure-reactive platform, under diurnal and bursty traffic
  (docs/AUTOSCALING.md);
* ``dataset``  — list the curated 20-project microservice registry.

Every subcommand also accepts the observability flags ``--trace
out.jsonl`` (run under a :mod:`repro.obs` tracer with an attached
flight recorder, write the JSONL trace and print the span-tree/counter
summary to stderr) and ``--log-level debug|info|warning|error``
(stdlib logging across all ``repro`` modules).  Tracing is
observational: results are bit-identical with it on or off.  A recorded
trace can be re-rendered offline — span tree, histogram quantile
tables, per-shard slot timelines and the flight-recorder timeline —
with ``repro report out.jsonl``.

Everything is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Optional, Sequence

from repro.baselines import (
    GreedyCombineOG,
    JointDeploymentRouting,
    OptimalSolver,
    RandomProvisioning,
)
from repro.core import SoCL, SoCLConfig
from repro.core.online import OnlineSoCL
from repro.obs import (
    LOG_LEVELS,
    FlightRecorder,
    Tracer,
    setup_logging,
    summary,
    use_tracer,
    write_jsonl,
)

logger = logging.getLogger(__name__)

SOLVER_CHOICES = ("socl", "socl-online", "rp", "jdr", "gcog", "opt")


def make_solver(name: str, seed: int = 0, time_limit: Optional[float] = None):
    """Instantiate a solver by CLI name."""
    name = name.lower()
    if name == "socl":
        return SoCL(SoCLConfig())
    if name == "socl-online":
        return OnlineSoCL()
    if name == "rp":
        return RandomProvisioning(seed=seed)
    if name == "jdr":
        return JointDeploymentRouting()
    if name == "gcog":
        return GreedyCombineOG()
    if name == "opt":
        return OptimalSolver(time_limit=time_limit or 300.0)
    raise ValueError(f"unknown solver {name!r}; choices: {SOLVER_CHOICES}")


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--servers", type=int, default=10)
    parser.add_argument("--users", type=int, default=40)
    parser.add_argument("--budget", type=float, default=6000.0)
    parser.add_argument("--weight", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)


def cmd_solve(args: argparse.Namespace) -> int:
    from repro.experiments import paper_scenario

    instance = paper_scenario(
        n_servers=args.servers,
        n_users=args.users,
        budget=args.budget,
        seed=args.seed,
        weight=args.weight,
    )
    solver = make_solver(args.solver, seed=args.seed, time_limit=args.time_limit)
    result = solver.solve(instance)
    print(f"algorithm : {getattr(solver, 'name', type(solver).__name__)}")
    print(f"objective : {result.report.objective:,.3f}")
    print(f"cost      : {result.report.cost:,.1f}")
    print(f"latency   : Σ={result.report.latency_sum:.3f}s "
          f"mean={result.report.mean_latency:.3f}s max={result.report.max_latency:.3f}s")
    print(f"runtime   : {result.runtime:.3f}s")
    print(f"feasible  : {result.feasibility.feasible}")
    if args.placement:
        print("placement :")
        for svc in instance.requested_services:
            hosts = list(map(int, result.placement.hosts(int(svc))))
            print(f"  {instance.app.service(int(svc)).name:<26s} {hosts}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments import compare_algorithms, format_table, paper_scenario

    instance = paper_scenario(
        n_servers=args.servers,
        n_users=args.users,
        budget=args.budget,
        seed=args.seed,
        weight=args.weight,
    )
    solvers = [make_solver(name, seed=args.seed) for name in args.solvers]
    rows = compare_algorithms(instance, solvers)
    print(
        format_table(
            rows,
            columns=[
                "algorithm",
                "objective",
                "cost",
                "latency_sum",
                "runtime",
                "feasible",
            ],
            title=f"{args.users} users on {args.servers} servers "
            f"(budget {args.budget:g}, λ={args.weight})",
        )
    )
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import figures, format_table
    from repro.experiments.ascii_plots import bar_chart, line_panel, sparkline

    fig = args.name.lower()
    if fig == "fig2":
        rows = figures.fig2_opt_runtime(seed=args.seed)
        print(format_table(rows, title="Fig.2 exact-ILP runtime"))
        runtimes = {
            f"{r['n_servers']}sv/{r['n_users']}u": r["runtime"] for r in rows
        }
        print("\n" + bar_chart(runtimes, unit="s", log=True))
    elif fig == "fig3":
        out = figures.fig3_similarity(seed=args.seed)
        print(format_table(out["per_service"], title="Fig.3(b) similarity per service"))
        print(f"\nmax similarity {out['max_similarity']:.3f} "
              f"(paper ≈0.65); cross-file mean {out['cross_file_mean']:.3f}")
    elif fig == "fig4":
        out = figures.fig4_temporal(seed=args.seed)
        print("Fig.4 request volume: " + sparkline(out["volumes"], width=80))
        print(f"peak-to-mean {out['peak_to_mean']:.2f}, "
              f"CoV {out['coefficient_of_variation']:.2f}")
    elif fig == "fig7":
        rows = figures.fig7_socl_vs_opt(seed=args.seed, n_jobs=args.jobs)
        print(format_table(rows, title="Fig.7 SoCL vs OPT"))
    elif fig == "fig8":
        rows = figures.fig8_baselines(seed=args.seed, n_jobs=args.jobs)
        print(format_table(
            rows,
            columns=["n_users", "algorithm", "objective", "cost", "latency_sum", "runtime"],
            title="Fig.8 baselines across user scales",
        ))
    elif fig == "fig9":
        rows = figures.fig9_cluster(seed=args.seed, n_jobs=args.jobs)
        print(format_table(rows, title="Fig.9 cluster results"))
    elif fig == "fig10":
        series = figures.fig10_trace(seed=args.seed, n_slots=args.slots)
        print(line_panel(
            {k: v["slot_means"] for k, v in series.items()},
            title="Fig.10 per-slot average delay (s)",
        ))
        for name, data in series.items():
            print(f"{name:8s} avg={data['mean_delay']:.3f}s max={data['max_delay']:.3f}s")
    else:
        print(f"unknown figure {args.name!r}; choices: fig2 fig3 fig4 fig7 fig8 fig9 fig10",
              file=sys.stderr)
        return 2
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.ascii_plots import sparkline
    from repro.microservices import eshop_application
    from repro.model import ProblemConfig
    from repro.network import stadium_topology
    from repro.runtime import OnlineSimulator
    from repro.runtime.failures import OutageSchedule
    from repro.workload import WorkloadSpec

    network = stadium_topology(args.servers, seed=args.seed)
    sim = OnlineSimulator(
        network,
        eshop_application(),
        ProblemConfig(weight=args.weight, budget=args.budget),
        WorkloadSpec(n_users=args.users, data_scale=5.0),
        seed=args.seed,
        shards=args.shards,
    )
    outages = (
        OutageSchedule(args.servers, fail_prob=args.fail_prob, seed=args.seed)
        if args.fail_prob > 0
        else None
    )
    solver = make_solver(args.solver, seed=args.seed)
    result = sim.run(solver, n_slots=args.slots, outages=outages)
    print(f"{result.solver_name}: mean delay {result.mean_delay:.3f}s, "
          f"max {result.max_delay:.3f}s over {args.slots} slots")
    print("per-slot mean delay: " + sparkline(result.slot_means(), width=args.slots))
    cold = sum(s.cold_starts for s in result.slots)
    down = sum(s.n_down_nodes for s in result.slots)
    print(f"cold starts {cold}, node-down slots {down}")
    return 0


def cmd_resilience(args: argparse.Namespace) -> int:
    from repro.experiments import figures, format_table
    from repro.experiments.sweeps import aggregate
    from repro.runtime.resilience import ResiliencePolicy

    policy = (
        None
        if args.no_policy
        else ResiliencePolicy(
            max_retries=args.retries,
            hedging=not args.no_hedging,
            shedding=not args.no_shedding,
        )
    )
    rows = figures.resilience_sweep(
        intensities=args.intensities,
        n_users=args.users,
        n_servers=args.servers,
        n_slots=args.slots,
        budget=args.budget,
        seeds=[args.seed + i for i in range(args.seeds)],
        policy=policy,
        n_jobs=args.jobs,
    )
    print(
        format_table(
            rows,
            columns=[
                "algorithm",
                "intensity",
                "seed",
                "completion_rate",
                "mean_latency",
                "p99_latency",
                "retries",
                "hedges",
                "shed",
                "timeouts",
                "failed",
            ],
            percent=("completion_rate",),
            title=(
                f"resilience sweep: {args.users} users on {args.servers} servers, "
                f"{args.slots} slots, policy "
                f"{'off' if policy is None else 'on'}"
            ),
        )
    )
    if args.seeds > 1:
        summary_rows = aggregate(
            rows,
            group_by=("intensity", "algorithm"),
            metrics=("completion_rate", "p99_latency"),
        )
        print()
        print(
            format_table(
                summary_rows,
                columns=[
                    "intensity",
                    "algorithm",
                    "n",
                    "completion_rate_mean",
                    "completion_rate_std",
                    "p99_latency_mean",
                    "p99_latency_std",
                ],
                percent=("completion_rate_mean", "completion_rate_std"),
                title=f"aggregated over {args.seeds} seeds",
            )
        )
    return 0


def cmd_autoscale(args: argparse.Namespace) -> int:
    from repro.experiments import figures, format_table

    rows = figures.autoscale_sweep(
        modes=args.modes,
        traffics=args.traffics,
        n_users=args.users,
        n_servers=args.servers,
        n_slots=args.slots,
        budget=args.budget,
        seed=args.seed,
        n_jobs=args.jobs,
    )
    print(
        format_table(
            rows,
            columns=[
                "traffic",
                "mode",
                "algorithm",
                "completion_rate",
                "p99_latency",
                "mean_latency",
                "cold_starts",
                "instance_seconds",
                "scale_ups",
                "scale_downs",
                "prewarms",
                "evictions",
            ],
            percent=("completion_rate",),
            title=(
                f"autoscale sweep: {args.users} users on {args.servers} servers, "
                f"{args.slots} slots"
            ),
        )
    )
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import format_table
    from repro.experiments.scenarios import ScenarioParams
    from repro.experiments.sweeps import aggregate, grid_sweep, win_rate

    factories = {
        name.upper() if name in ("rp", "jdr") else name: (
            lambda n=name: make_solver(n, seed=0)
        )
        for name in args.solvers
    }
    cells = grid_sweep(
        axes={"n_users": args.users},
        seeds=list(range(args.seeds)),
        solver_factories=factories,
        base=ScenarioParams(n_servers=args.servers, budget=args.budget),
        n_jobs=args.jobs,
    )
    rows = aggregate(cells, group_by=("n_users", "algorithm"))
    print(
        format_table(
            rows,
            columns=[
                "n_users",
                "algorithm",
                "n",
                "objective_mean",
                "objective_std",
                "runtime_mean",
                "all_feasible",
            ],
            title=f"{args.seeds}-seed sweep on {args.servers} servers",
        )
    )
    try:
        rate = win_rate(cells, "socl")
        print(f"\nsocl win rate: {rate:.0%}")
    except ValueError:
        pass
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.trace_file:
        from repro.experiments.reporting import render_trace_report

        try:
            text = render_trace_report(args.trace_file)
        except (OSError, ValueError) as exc:
            print(exc, file=sys.stderr)
            return 2
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {args.output}")
        else:
            print(text)
        return 0

    from repro.experiments.report import generate_report

    try:
        text = generate_report(seed=args.seed, fast=not args.full, only=args.only)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_dataset(args: argparse.Namespace) -> int:
    from repro.microservices import curated_dataset

    for proj in curated_dataset():
        kind = "encoded" if not proj.synthesized else "synthesized"
        app = proj.application
        print(f"{proj.name:<28s} {app.n_services:3d} services "
              f"{app.graph.number_of_edges():3d} deps "
              f"{len(app.entrypoints)} entrypoints  [{kind}]")
    return 0


def _jobs(text: str) -> int:
    """``--jobs`` type: an integer >= -1 (``0``/``-1`` mean every CPU)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < -1:
        raise argparse.ArgumentTypeError(f"must be >= -1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SoCL serverless-edge microservice provisioning (CLUSTER 2025 reproduction)",
    )
    # observability flags, shared by every subcommand (after the verb:
    # ``repro figure fig7 --trace out.jsonl --log-level debug``)
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace", metavar="PATH", default=None, dest="trace_out",
        help="write a JSONL span/counter trace of the run to PATH",
    )
    obs_flags.add_argument(
        "--log-level", choices=LOG_LEVELS, default="warning",
        help="stdlib logging verbosity for all repro modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, **kwargs):
        return sub.add_parser(name, parents=[obs_flags], **kwargs)

    p = add_command("solve", help="run one algorithm on a scenario")
    _add_scenario_args(p)
    p.add_argument("--solver", choices=SOLVER_CHOICES, default="socl")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--placement", action="store_true", help="print the placement")
    p.set_defaults(func=cmd_solve)

    p = add_command("compare", help="run the baseline lineup")
    _add_scenario_args(p)
    p.add_argument(
        "--solvers", nargs="+", choices=SOLVER_CHOICES,
        default=["rp", "jdr", "gcog", "socl"],
    )
    p.set_defaults(func=cmd_compare)

    p = add_command("figure", help="regenerate a paper figure's data")
    p.add_argument("name", help="fig2|fig3|fig4|fig7|fig8|fig9|fig10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slots", type=int, default=12)
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="worker processes for fig7/fig8/fig9 sweep cells")
    p.set_defaults(func=cmd_figure)

    p = add_command("trace", help="online mobility trace (Fig.10 setting)")
    _add_scenario_args(p)
    p.set_defaults(servers=16, users=30)
    p.add_argument("--solver", choices=SOLVER_CHOICES, default="socl")
    p.add_argument("--slots", type=int, default=12)
    p.add_argument("--shards", type=int, default=1,
                   help="region shards for slot replay (>1 enables the "
                        "sharded engine; results are bit-identical)")
    p.add_argument("--fail-prob", type=float, default=0.0,
                   help="per-slot node failure probability (failure injection)")
    p.set_defaults(func=cmd_trace)

    p = add_command("resilience", help="fault-injection resilience experiment")
    p.add_argument("--servers", type=int, default=8)
    p.add_argument("--users", type=int, default=40)
    p.add_argument("--budget", type=float, default=6000.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slots", type=int, default=4)
    p.add_argument(
        "--intensities", type=float, nargs="+", default=[0.0, 0.1, 0.2, 0.4],
        help="fault intensities in [0,1]: crash_prob=i, link_fail_prob=i/2",
    )
    p.add_argument("--seeds", type=int, default=1,
                   help="number of seeds (starting at --seed); >1 adds a mean±std table")
    p.add_argument("--retries", type=int, default=2,
                   help="max retries per crashed invocation")
    p.add_argument("--no-policy", action="store_true",
                   help="disable the resilience policy (crashes become hard failures)")
    p.add_argument("--no-hedging", action="store_true",
                   help="keep retries/timeouts but disable hedged re-routing")
    p.add_argument("--no-shedding", action="store_true",
                   help="keep retries/hedging but disable admission-time shedding")
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="worker processes for sweep cells")
    p.set_defaults(func=cmd_resilience)

    p = add_command("autoscale", help="static vs reactive provisioning comparison")
    p.add_argument("--servers", type=int, default=8)
    p.add_argument("--users", type=int, default=40)
    p.add_argument("--budget", type=float, default=6000.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slots", type=int, default=8)
    p.add_argument(
        "--modes", nargs="+", choices=["socl", "socl+as", "reactive"],
        default=["socl", "socl+as", "reactive"],
        help="provisioning modes: socl (static per-slot pre-provisioning), "
             "socl+as (SoCL assisted by the feedback autoscaler), "
             "reactive (pure-reactive, no pre-provisioning)",
    )
    p.add_argument(
        "--traffics", nargs="+", choices=["diurnal", "bursty"],
        default=["diurnal", "bursty"],
        help="arrival-trace profiles driving per-slot request volumes",
    )
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="worker processes for sweep cells")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also dump the comparison rows as JSON to PATH")
    p.set_defaults(func=cmd_autoscale)

    p = add_command("dataset", help="list the curated project registry")
    p.set_defaults(func=cmd_dataset)

    p = add_command("sweep", help="multi-seed sweep with mean±std aggregation")
    p.add_argument("--servers", type=int, default=10)
    p.add_argument("--users", type=int, nargs="+", default=[20, 60])
    p.add_argument("--budget", type=float, default=6000.0)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument(
        "--solvers", nargs="+", choices=SOLVER_CHOICES, default=["rp", "jdr", "socl"]
    )
    p.add_argument("--jobs", type=_jobs, default=1,
                   help="worker processes for sweep cells")
    p.set_defaults(func=cmd_sweep)

    p = add_command("report", help="regenerate all figures into a Markdown "
                                   "report, or render a recorded trace file")
    p.add_argument("trace_file", nargs="?", default=None, metavar="TRACE",
                   help="a --trace JSONL file to render (span tree, histogram "
                        "quantiles, per-shard timeline, flight recorder) "
                        "instead of regenerating figures")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true", help="bench-scale sweeps (slower)")
    p.add_argument("--only", nargs="+", default=None,
                   help="restrict to figure keys, e.g. fig4 fig8")
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    setup_logging(args.log_level)
    if not args.trace_out:
        return args.func(args)
    tracer = Tracer("repro")
    tracer.flight = FlightRecorder()
    with use_tracer(tracer):
        with tracer.span(f"cli.{args.command}"):
            rc = args.func(args)
    n_records = write_jsonl(tracer, args.trace_out)
    print(summary(tracer), file=sys.stderr)
    print(f"trace: wrote {n_records} records to {args.trace_out}", file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
