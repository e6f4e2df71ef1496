"""The repository's benchmark: ``OnlineSimulator.run`` on fig-10 workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig10-sharded --seed 1 --seconds 40 --trace 0

Each measured pass runs one workload (see ``workloads.py``) through
``OnlineSimulator.run`` in a fresh child process (``child.py``), one
child at a time.  Passes repeat while another one fits in ``--seconds``;
there is always at least one.  Extra set-up-only children bring the
set-up samples to ``SETUP_SAMPLES``; ``setup_s`` and ``peak_rss_mb`` are
medians of their samples.

Every pass of one workload and seed does the same work, and the child
cuts its wall time at the same points of the program on every pass: at
each slot's solve and at each garbage collection (see ``child.py``).
``requests_per_s`` divides the requests of one pass by the sum over
segments of each segment's fastest time across the passes (best of N,
segment by segment).  A shared host only ever slows a segment down, and
even in its slow phases some stretches of tens of milliseconds run at
full speed, so the per-segment minimum keeps the program's own time and
drops most of the host's.  Should the passes ever collect garbage a
different number of times, the cut falls back to the solves alone.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer ledger of the traced pass (``layers.py``), plus the tracing
overhead against the untraced passes.

Every pass is checked: request conservation per slot, finite and
non-negative latencies, budget and storage feasibility of every slot's
placement, and (traced) program counters against the slot records and
non-empty expected layers.  All passes of one workload and seed on one
source tree must produce the same SHA-256 digest of the modelled
results, traced or not; digests are also kept across invocations in
``.perfbench/digests.json``.  A violation prints ``"correct": false`` and
exits 1; a pass that cannot run exits 1 without a result.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (simulated requests submitted), ``failed`` (requests not
completed: timed out, failed or shed) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

#: Set-up samples per invocation (passes plus set-up-only children).
SETUP_SAMPLES = 3
#: Wall-clock limit for one whole invocation, children included.
DEADLINE_S = 170.0
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: (name, unit) of every end-to-end metric, in the order printed.
END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("peak_rss_mb", "MB"),
    ("mean_delay_s", "sim_s"),
    ("p99_delay_s", "sim_s"),
    ("objective", "score"),
    ("cold_starts", "count"),
    ("completion_rate", "fraction"),
)


def per_layer_units() -> dict[str, str]:
    """Name → unit of every per-layer metric a traced run reports."""
    units = {}
    for layer, metric, _ in layers.LAYERS:
        units[metric] = "s"
        units[f"{layer}.calls"] = "count"
    for name in (
        "core.online.full_solves",
        "core.online.repairs",
        "workload.users.requests",
        "runtime.cluster.replay_declines",
        *layers.COPIED_COUNTERS,
    ):
        units[name] = "count"
    units["runtime.cluster.replay_accept_ratio"] = "fraction"
    units["ledger.wall_s"] = "s"
    units["ledger.unattributed_s"] = "s"
    units["ledger.unattributed_frac"] = "fraction"
    units["obs.trace_overhead_frac"] = "fraction"
    units["host.cpu_s"] = "s"
    units["host.descheduled_frac"] = "fraction"
    return units


class ChildError(RuntimeError):
    """A child process could not produce a result."""


def spawn(mode: str, args, remaining: float) -> dict:
    """Run one child to completion; its parsed JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = time.monotonic()
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--t0", repr(t0),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(remaining, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} child ran past the deadline") from exc
    if proc.returncode != 0:
        raise ChildError(
            f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tree_hash() -> str:
    """SHA-256 over the program and benchmark sources (the "commit")."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def check_digests(passes: list[dict], key: str, store: dict) -> list[str]:
    """Digest disagreements among ``passes`` and with ``store[key]``."""
    seen = sorted({p["digest"] for p in passes})
    problems = []
    if len(seen) > 1:
        problems.append(
            "passes of one workload and seed produced different digests: "
            + ", ".join(f"{p['mode']}={p['digest'][:12]}" for p in passes)
        )
    elif key in store and store[key] != seen[0]:
        problems.append(
            f"digest {seen[0][:12]} differs from {store[key][:12]} recorded "
            f"by an earlier run of the same sources"
        )
    return problems


def _load_store(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def _save_json(path: str, doc: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def measure(args, start: float) -> list[dict]:
    """Run passes while another round fits in ``args.seconds``."""
    passes: list[dict] = []
    while True:
        round_start = time.monotonic()
        for mode in ("run", "trace") if args.trace else ("run",):
            remaining = DEADLINE_S - (time.monotonic() - start)
            result = spawn(mode, args, remaining)
            print(
                f"pass {len(passes)} {mode}: run {result['run_s']:.3f} s "
                f"cpu {result['cpu_s']:.3f} s setup {result['setup_s']:.3f} s "
                f"rss {result['peak_rss_mb']:.0f} MB "
                f"{len(result['segments_s'])} segments "
                f"digest {result['digest'][:12]}",
                flush=True,
            )
            passes.append(result)
        now = time.monotonic()
        if now - start + now - round_start > args.seconds:
            return passes


def check_segments(passes: list[dict]) -> list[str]:
    """A problem if the passes did not solve at the same slots."""
    counts = sorted({len(p["slot_segments_s"]) for p in passes})
    if len(counts) > 1:
        return [f"passes were cut into different numbers of slot segments: "
                f"{counts}"]
    return []


def segment_key(passes: list[dict]) -> str:
    """The finest cut every pass shares: garbage collections and solves
    when all passes collected equally often, else solves only."""
    if len({len(p["segments_s"]) for p in passes}) == 1:
        return "segments_s"
    return "slot_segments_s"


def best_wall(passes: list[dict]) -> float:
    """Sum over segments of each segment's fastest time across ``passes``."""
    key = segment_key(passes)
    return sum(min(seg) for seg in zip(*(p[key] for p in passes)))


def summarize(args, passes: list[dict], setups: list[float]) -> dict:
    """The metrics object of the final JSON line."""
    untraced = [p for p in passes if p["mode"] == "run"]
    if args.trace:
        traced = [p for p in passes if p["mode"] == "trace"]
        last = traced[-1]
        values = dict(last["ledger"])
        values["obs.trace_overhead_frac"] = (
            best_wall(traced) / best_wall(untraced) - 1.0
        )
        values["host.cpu_s"] = last["cpu_s"]
        values["host.descheduled_frac"] = 1.0 - last["cpu_s"] / last["run_s"]
        units = per_layer_units()
    else:
        first = untraced[0]  # modelled results: identical in every pass
        values = {
            "setup_s": statistics.median(setups),
            "requests_per_s": first["requests"] / best_wall(untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "mean_delay_s": first["mean_delay_s"],
            "p99_delay_s": first["p99_delay_s"],
            "objective": first["objective"],
            "cold_starts": float(first["cold_starts"]),
            "completion_rate": first["completion_rate"],
        }
        units = dict(END_TO_END)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def print_ledger(metrics: dict) -> None:
    """Human-readable ledger: self seconds, share of wall, calls."""
    wall = metrics["ledger.wall_s"]["value"]
    rows = sorted(
        ((metrics[m]["value"], layer, metrics[f"{layer}.calls"]["value"])
         for layer, m, _ in layers.LAYERS),
        reverse=True,
    )
    print(f"ledger: OnlineSimulator.run wall {wall:.3f} s")
    for self_s, layer, calls in rows:
        print(f"  {layer:<24} {self_s:9.3f} s {100 * self_s / wall:6.1f} % "
              f"{int(calls):7d} calls")
    un = metrics["ledger.unattributed_s"]["value"]
    print(f"  {'(unattributed)':<24} {un:9.3f} s {100 * un / wall:6.1f} %")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: the same workload shrunk to seconds")
    args = parser.parse_args(argv)
    wl = workloads.get(args.workload, args.size)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program sources under {ROOT}/src/repro", file=sys.stderr)
        return 2

    start = time.monotonic()
    load_before = os.getloadavg()
    try:
        passes = measure(args, start)
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            remaining = DEADLINE_S - (time.monotonic() - start)
            setups.append(spawn("setup", args, remaining)["setup_s"])
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    load_after = os.getloadavg()

    problems = [v for p in passes for v in p["violations"]]
    key = f"{wl.name}/{args.size}/{args.seed}/{tree_hash()}"
    store_path = os.path.join(STATE_DIR, "digests.json")
    store = _load_store(store_path)
    problems += check_digests(passes, key, store)
    problems += check_segments(passes)
    if not problems:
        store[key] = passes[0]["digest"]
        _save_json(store_path, store)

    metrics = summarize(args, passes, setups)
    print(
        f"host: nproc {os.cpu_count()} loadavg before "
        f"{' '.join(f'{x:.2f}' for x in load_before)} after "
        f"{' '.join(f'{x:.2f}' for x in load_after)} python "
        f"{platform.python_version()} numpy {metadata.version('numpy')}"
    )
    print(
        f"workload {wl.name} ({args.size}): {wl.users} users, {wl.servers} "
        f"servers, {wl.slots} slots per pass, seed {args.seed}, "
        f"{len(passes)} passes, {len(setups)} set-ups; p99 over "
        f"{passes[0]['totals']['completed']} completed requests per pass"
    )
    untraced = [p for p in passes if p["mode"] == "run"]
    print(
        f"untraced run wall: best of {len(untraced)} per segment "
        f"{best_wall(untraced):.3f} s over "
        f"{len(untraced[0][segment_key(untraced)])} segments, median pass "
        f"{statistics.median(p['run_s'] for p in untraced):.3f} s"
    )
    if args.trace:
        print_ledger(metrics)
        _save_json(
            os.path.join(STATE_DIR, f"ledger-{wl.name}-{args.seed}.json"),
            {name: m["value"] for name, m in metrics.items()},
        )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"VIOLATION: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["requests"] for p in passes),
        "failed": sum(p["errors"] for p in passes),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
