"""One-region vs region-sharded replay benchmark → ``BENCH_shard.json``.

Run as a script (not under pytest-benchmark — every measurement needs a
*fresh* subprocess, see below):

    PYTHONPATH=src python benchmarks/bench_shard.py \
        --scales 100000 300000 1000000 --shards 4 --out BENCH_shard.json

The one fixpoint engine is measured over two region maps: one region
holding every node (:func:`repro.runtime.shard.replay_slot`, ``ref``)
and ``--shards`` regions (:func:`repro.runtime.shard.replay_slot_sharded`,
``sharded``).  Their wall-time ratio is recorded, not gated.  The
1M-user scale needs ~5 GB of memory per measurement child.

For each scale the parent builds the fig-10-shaped slot once — workload
streamed through :func:`repro.workload.users.generate_request_windows`
and reassembled with :meth:`RequestBatch.concat`, full placement,
``optimal_routing`` saved to a temp file so the (solver-side, engine-
independent) routing memory never pollutes replay measurements — and
then runs each (engine, repeat) in its own subprocess:

* **fresh process per measurement** — the engines allocate hundreds of
  MB of transient arrays; running one engine after the other in the
  same process inflates the second run's wall time by 30-60 % through
  allocator/page-cache pollution.  Subprocess isolation is what makes
  the before/after pair honest.
* **peak RSS per measurement** — each child reports its own
  ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` (tracemalloc peak as a
  fallback where ``resource`` is unavailable), so BENCH_shard.json
  records memory alongside wall time.
* **bit-identity across processes** — every child prints a SHA-256
  digest over its committed outputs (finish/queueing/cold-start
  columns, pool last-used state, node core clocks); the parent asserts
  the sharded digest equals the one-region digest at every scale.
* **streaming-generation RSS** — a separate child iterates the window
  generator *without* accumulating and reports the RSS delta of the
  generation stage.  This is the tentpole's flat-memory claim: windows
  are bounded (default 100k requests), so the delta stays flat from
  100k to 1M users while a monolithic generator would grow 10×.

The published JSON is schema ``bench-shard/4`` and is validated by
``tests/test_bench_shard_schema.py``; the CI smoke step re-checks
bit-identity with the event loop at a small scale on every push.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

SCHEMA = "bench-shard/4"
RATE = 5.0  # arrivals per second: utilization ~0.05 at every scale
WINDOW = 100_000


def _peak_rss_mb() -> float:
    """Peak RSS of this process in MB (ru_maxrss; tracemalloc fallback)."""
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    except ImportError:  # pragma: no cover - non-POSIX
        import tracemalloc

        if not tracemalloc.is_tracing():
            return 0.0
        return tracemalloc.get_traced_memory()[1] / (1024.0 * 1024.0)


def _build_slot(n_users: int):
    """The fig-10-shaped slot at ``n_users``, workload streamed."""
    import numpy as np

    from repro.microservices import eshop_application
    from repro.model import Placement, ProblemConfig, ProblemInstance
    from repro.network import stadium_topology
    from repro.workload import (
        RequestBatch,
        WorkloadSpec,
        generate_request_windows,
    )

    net = stadium_topology(16, seed=0)
    app = eshop_application()
    spec = WorkloadSpec(n_users=n_users, data_scale=5.0)
    batch = RequestBatch.concat(
        list(generate_request_windows(net, app, spec, rng=0, window_size=WINDOW))
    )
    inst = ProblemInstance(
        net, app, batch, ProblemConfig(weight=0.5, budget=6000.0)
    )
    placement = Placement.full(inst)
    at = np.sort(
        np.random.default_rng(1).uniform(0.0, n_users / RATE, size=n_users)
    )
    return net, inst, placement, at


def _digest(result, pool, nodes) -> str:
    """SHA-256 over every committed output of a replay.

    The pool's warmth enters as the sorted ``((service, node), time)``
    list of its invoked cells: keys as Python ints, times as the NumPy
    scalars the replay commits, the ``repr`` every published digest was
    recorded over.
    """
    import numpy as np

    h = hashlib.sha256()
    for name in ("finish", "queueing", "cold_start"):
        h.update(getattr(result, name).tobytes())
    svc, node = np.nonzero(~np.isnan(pool.last_used))
    cells = zip(zip(svc.tolist(), node.tolist()), pool.last_used[svc, node])
    h.update(repr(sorted(cells)).encode())
    h.update(repr((pool.cold_starts, pool.warm_hits)).encode())
    for nd in nodes:
        h.update(repr(list(nd.core_free)).encode())
        h.update(repr(nd.busy_time).encode())
    return h.hexdigest()


def worker_replay(args) -> None:
    """Child: run one engine once, print a JSON measurement line."""
    import numpy as np

    from repro.runtime import ServerlessConfig
    from repro.runtime.cluster import SimulatedCluster
    from repro.runtime.serverless import InstancePool
    from repro.runtime.shard import RegionMap, replay_slot, replay_slot_sharded

    net, inst, placement, at = _build_slot(args.n_users)
    routing = np.load(args.routing, allow_pickle=True).item()
    pool = InstancePool(
        placement, ServerlessConfig(cold_start=0.5, keep_alive=60.0)
    )
    cluster = SimulatedCluster(inst, placement, routing, pool=pool)
    req = np.arange(args.n_users)
    out = {"engine": args.engine, "n_users": args.n_users}
    if args.engine == "ref":
        t0 = time.perf_counter()
        result = replay_slot(
            inst, placement, routing, pool, cluster.nodes, req, at
        )
        out["wall_s"] = time.perf_counter() - t0
        assert result is not None, "one-region replay declined"
        out["rounds"] = result.rounds
    else:
        rmap = RegionMap.from_positions(net.positions, args.shards)
        t0 = time.perf_counter()
        sharded = replay_slot_sharded(
            inst, placement, routing, pool, cluster.nodes, req, at, rmap
        )
        out["wall_s"] = time.perf_counter() - t0
        assert sharded is not None, "sharded replay declined"
        result = sharded.result
        out["rounds"] = sharded.stats.rounds
        out["shards"] = sharded.stats.n_shards
        out["boundary_invocations"] = sharded.stats.boundary_invocations
        out["exchange_rounds"] = sharded.stats.exchange_rounds
    out["digest"] = _digest(result, pool, cluster.nodes)
    out["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))


def worker_prep(args) -> None:
    """Child: build the slot, save its routing to ``--routing``.

    Routing is precomputed once per scale and shared with every
    measurement child via a temp ``.npy``.  Building the slot takes
    gigabytes at the top scale, and on Linux ``ru_maxrss`` survives
    ``fork+exec`` — so the publisher must never hold the big arrays
    itself, or every child it spawns would inherit the publisher's
    peak as a floor on its own RSS reading.
    """
    import numpy as np

    from repro.model import optimal_routing

    _, inst, placement, _ = _build_slot(args.n_users)
    routing = optimal_routing(inst, placement)
    np.save(args.routing, routing, allow_pickle=True)
    print(json.dumps({"n_users": args.n_users, "routing": args.routing}))


def worker_genrss(args) -> None:
    """Child: stream windows without accumulating; report the RSS delta."""
    from repro.microservices import eshop_application
    from repro.network import stadium_topology
    from repro.workload import WorkloadSpec, generate_request_windows

    net = stadium_topology(16, seed=0)
    app = eshop_application()
    spec = WorkloadSpec(n_users=args.n_users, data_scale=5.0)
    base = _peak_rss_mb()
    total = 0
    t0 = time.perf_counter()
    for window in generate_request_windows(
        net, app, spec, rng=0, window_size=WINDOW
    ):
        total += window.n_requests
    wall = time.perf_counter() - t0
    assert total == args.n_users
    print(
        json.dumps(
            {
                "n_users": args.n_users,
                "wall_s": wall,
                "gen_peak_delta_mb": max(0.0, _peak_rss_mb() - base),
                "gen_peak_rss_mb": _peak_rss_mb(),
                "window_size": WINDOW,
            }
        )
    )


def _spawn(argv: list[str]) -> dict:
    """Run this script in worker mode; parse its JSON line."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)] + argv,
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {argv} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_publish(args) -> int:
    scales = []
    for n_users in args.scales:
        print(f"=== n_users={n_users} ===", flush=True)
        with tempfile.NamedTemporaryFile(
            suffix=".npy", delete=False
        ) as tmp:
            routing_path = tmp.name
        _spawn(
            ["--worker", "prep", "--n-users", str(n_users),
             "--routing", routing_path]
        )
        try:
            row: dict = {"n_users": n_users}
            for engine in ("ref", "sharded"):
                runs = []
                for rep in range(args.repeats):
                    m = _spawn(
                        [
                            "--worker",
                            "replay",
                            "--engine",
                            engine,
                            "--n-users",
                            str(n_users),
                            "--shards",
                            str(args.shards),
                            "--routing",
                            routing_path,
                        ]
                    )
                    runs.append(m)
                    print(
                        f"  {engine} run {rep}: {m['wall_s']:.2f}s "
                        f"rss={m['peak_rss_mb']:.0f}MB",
                        flush=True,
                    )
                walls = sorted(r["wall_s"] for r in runs)
                digests = {r["digest"] for r in runs}
                assert len(digests) == 1, f"{engine} digests diverged"
                row[engine] = {
                    "wall_s_median": walls[len(walls) // 2],
                    "wall_s_runs": [r["wall_s"] for r in runs],
                    "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
                    "rounds": runs[0]["rounds"],
                    "digest": runs[0]["digest"],
                }
                if engine == "sharded":
                    for key in ("shards", "boundary_invocations",
                                "exchange_rounds"):
                        row[engine][key] = runs[0][key]
            row["identical"] = (
                row["sharded"]["digest"] == row["ref"]["digest"]
            )
            row["speedup"] = (
                row["ref"]["wall_s_median"]
                / row["sharded"]["wall_s_median"]
            )
            gen = _spawn(
                ["--worker", "genrss", "--n-users", str(n_users)]
            )
            row["generation"] = {
                "wall_s": gen["wall_s"],
                "peak_delta_mb": gen["gen_peak_delta_mb"],
                "peak_rss_mb": gen["gen_peak_rss_mb"],
                "window_size": gen["window_size"],
            }
            print(
                f"  speedup {row['speedup']:.2f}x identical="
                f"{row['identical']} gen-delta="
                f"{gen['gen_peak_delta_mb']:.0f}MB",
                flush=True,
            )
            scales.append(row)
        finally:
            os.unlink(routing_path)

    smallest = scales[0]
    largest = scales[-1]
    doc = {
        "schema": SCHEMA,
        "description": (
            "Paired one-region vs region-sharded slot replay on the fig-10 "
            "slot (stadium_topology(16), eshop app, streamed workload "
            f"windows of {WINDOW}, data_scale=5.0, full placement with "
            f"optimal routing, arrivals uniform at {RATE} req/s, "
            "ServerlessConfig(cold_start=0.5, keep_alive=60.0)). Every "
            "measurement runs in a fresh subprocess (allocator/page "
            "pollution otherwise inflates the second engine 30-60%) "
            "and reports its own peak RSS; bit-identity is asserted "
            "via SHA-256 digests over finish/queueing/cold-start, pool "
            "last-used state and node core clocks. 'generation' is the "
            "streaming workload generator measured in its own fresh "
            "subprocess (absolute peak RSS and delta over the import/"
            "topology baseline) — bounded windows keep it flat as users "
            "grow. Methodology in EXPERIMENTS.md."
        ),
        "command": (
            "PYTHONPATH=src python benchmarks/bench_shard.py --scales "
            + " ".join(str(s) for s in args.scales)
            + f" --shards {args.shards} --repeats {args.repeats}"
        ),
        "config": {
            "shards": args.shards,
            "repeats": args.repeats,
            "arrival_rate": RATE,
            "window_size": WINDOW,
        },
        "host": {
            "cpu_count": os.cpu_count() or 1,
            "platform": sys.platform,
        },
        "scales": scales,
        "criteria": {
            # one-region over sharded wall time: recorded, not gated
            "speedup_at_largest_scale": largest["speedup"],
            "all_identical": all(s["identical"] for s in scales),
            "gen_rss_largest_mb": largest["generation"]["peak_rss_mb"],
            "gen_rss_smallest_mb": smallest["generation"]["peak_rss_mb"],
            "gen_rss_within_2x": (
                largest["generation"]["peak_rss_mb"]
                <= 2.0 * max(smallest["generation"]["peak_rss_mb"], 1.0)
            ),
        },
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    crit = doc["criteria"]
    ok = crit["all_identical"] and crit["gen_rss_within_2x"]
    print(f"criteria: {json.dumps(crit)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--worker", choices=["prep", "replay", "genrss"]
    )
    parser.add_argument("--engine", choices=["ref", "sharded"])
    parser.add_argument("--n-users", type=int, default=100_000)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--routing", default=None)
    parser.add_argument(
        "--scales", type=int, nargs="+",
        default=[100_000, 300_000, 1_000_000],
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_shard.json")
    args = parser.parse_args(argv)
    if args.worker == "prep":
        worker_prep(args)
        return 0
    if args.worker == "replay":
        worker_replay(args)
        return 0
    if args.worker == "genrss":
        worker_genrss(args)
        return 0
    return run_publish(args)


if __name__ == "__main__":
    sys.exit(main())
