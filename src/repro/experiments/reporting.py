"""Plain-text table rendering for experiment results and trace files.

The benchmark harness prints the same rows/series the paper reports;
these helpers render lists of dicts (or
:class:`repro.experiments.harness.AlgorithmRow`) as aligned text tables
and CSV for EXPERIMENTS.md.  :func:`format_span_tree` and
:func:`format_counters` render :mod:`repro.obs` trace data as the
human-readable run summary (``repro … --trace`` prints it after the
JSONL is written); they take plain records/mappings so this module
stays free of solver imports.

The second half is the offline trace reporter behind ``repro report
<trace.jsonl>``: :func:`load_trace` validates and parses a JSONL trace
written by ``--trace`` back into grouped records, and
:func:`render_trace_report` turns it into the full plain-text report —
span tree, histogram quantile table (:func:`format_hist_table`),
per-shard slot timeline (:func:`format_shard_timeline`), flight-recorder
timeline (:func:`format_snapshot_table`) and the counter/gauge catalog.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Mapping, Optional, Sequence


def _coerce(rows: Iterable) -> list[dict]:
    out = []
    for row in rows:
        if hasattr(row, "as_dict"):
            out.append(row.as_dict())
        elif isinstance(row, Mapping):
            out.append(dict(row))
        else:
            raise TypeError(f"cannot render row of type {type(row).__name__}")
    return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) >= 1:
            return f"{value:.3f}"
        return f"{value:.4g}"
    return str(value)


def format_table(
    rows: Iterable,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    percent: Sequence[str] = (),
) -> str:
    """Render rows as an aligned text table.

    Columns named in ``percent`` hold fractions in [0, 1] and render as
    percentages (``0.9833`` → ``98.3%``) — used for the resilience
    experiment's completion-rate column.
    """
    data = _coerce(rows)
    if not data:
        return f"{title or ''}\n(no rows)".strip()
    if columns is None:
        columns = list(data[0].keys())
    pct = set(percent)

    def render(col: str, value) -> str:
        if col in pct and isinstance(value, (int, float)) and not isinstance(value, bool):
            return f"{value * 100.0:.1f}%"
        return _fmt(value)

    cells = [[render(col, row.get(col, "")) for col in columns] for row in data]
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_span_tree(
    span_records: Sequence[Mapping],
    max_spans: int = 200,
) -> str:
    """Render flattened span records as an indented per-stage time tree.

    ``span_records`` are the ``type == "span"`` records of
    :func:`repro.obs.trace_records` (depth-first order with ``depth``
    and ``duration`` fields).  Sibling repetition is *not* collapsed —
    repeated stage names (e.g. one ``slot`` span per simulator slot)
    print as separate lines up to ``max_spans``.
    """
    records = list(span_records)[: max_spans + 1]
    truncated = len(records) > max_spans
    if truncated:
        records = records[:max_spans]
    if not records:
        return ""
    durations = [f"{r['duration'] * 1e3:,.1f} ms" for r in records]
    width = max(len(d) for d in durations)
    lines = []
    for record, dur in zip(records, durations):
        indent = "  " * int(record.get("depth", 0))
        attrs = record.get("attrs") or {}
        suffix = (
            "  [" + ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(attrs.items())) + "]"
            if attrs
            else ""
        )
        lines.append(f"{dur.rjust(width)}  {indent}{record['name']}{suffix}")
    if truncated:
        lines.append(f"… ({max_spans} spans shown)")
    return "\n".join(lines)


def format_counters(
    counters: Mapping[str, float],
    gauges: Optional[Mapping[str, float]] = None,
) -> str:
    """Render tracer counters (and gauges) as one sorted metric table."""
    rows = [
        {"metric": name, "kind": "counter", "value": counters[name]}
        for name in sorted(counters)
    ] + [
        {"metric": name, "kind": "gauge", "value": gauges[name]}
        for name in sorted(gauges or {})
    ]
    if not rows:
        return ""
    return format_table(rows, columns=["metric", "kind", "value"])


def rows_to_csv(rows: Iterable, columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as CSV text (no quoting of commas in values)."""
    data = _coerce(rows)
    if not data:
        return ""
    if columns is None:
        columns = list(data[0].keys())
    lines = [",".join(columns)]
    for row in data:
        lines.append(",".join(_fmt(row.get(col, "")) for col in columns))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# offline trace reporting (``repro report <trace.jsonl>``)
# ---------------------------------------------------------------------------

_SHARD_NAME = re.compile(r"^shard(\d+)$")


def load_trace(path: str) -> dict:
    """Validate and parse a ``--trace`` JSONL file into grouped records.

    Returns a dict with keys ``meta`` (the meta record), ``spans`` (the
    flattened span records in depth-first order), ``counters`` /
    ``gauges`` (name → value), ``hists`` (name →
    :class:`repro.obs.hist.StreamingHistogram`, rebuilt so quantiles can
    be queried offline) and ``snapshots`` (flight-recorder records in
    file order).  Raises ``ValueError`` on any schema violation — the
    file is checked with :func:`repro.obs.validate_jsonl` first, so a
    report is never rendered from a malformed trace.
    """
    # Lazy: keeps this module import-light and avoids the obs <-> experiments
    # import cycle (repro.obs.export imports this module for summaries).
    from repro.obs.export import validate_jsonl
    from repro.obs.hist import StreamingHistogram

    validate_jsonl(path)
    out: dict = {
        "meta": None,
        "spans": [],
        "counters": {},
        "gauges": {},
        "hists": {},
        "snapshots": [],
    }
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            kind = record["type"]
            if kind == "meta":
                out["meta"] = record
            elif kind == "span":
                out["spans"].append(record)
            elif kind == "counter":
                out["counters"][record["name"]] = record["value"]
            elif kind == "gauge":
                out["gauges"][record["name"]] = record["value"]
            elif kind == "hist":
                out["hists"][record["name"]] = StreamingHistogram.from_dict(record)
            elif kind == "snapshot":
                out["snapshots"].append(record)
    return out


def format_hist_table(
    hists: Mapping,
    quantiles: Sequence[float] = (0.5, 0.9, 0.95, 0.99),
) -> str:
    """Render histograms as one quantile table (count/mean/p50…/max).

    ``hists`` maps name → :class:`repro.obs.hist.StreamingHistogram`
    (or an ``as_dict`` payload — rebuilt transparently).  Quantiles are
    approximate within each histogram's relative-error bound; count,
    mean, min and max are exact.
    """
    from repro.obs.hist import StreamingHistogram

    rows = []
    for name in sorted(hists):
        hist = hists[name]
        if isinstance(hist, Mapping):
            hist = StreamingHistogram.from_dict(hist)
        row = {"histogram": name, "count": hist.count}
        if hist.count:
            row["mean"] = hist.mean
            for q in quantiles:
                row[f"p{q * 100:g}"] = hist.quantile(q)
            row["max"] = hist.max
        rows.append(row)
    if not rows:
        return ""
    columns = ["histogram", "count", "mean"]
    columns += [f"p{q * 100:g}" for q in quantiles] + ["max"]
    return format_table(rows, columns=columns, title="histograms")


def format_shard_timeline(
    span_records: Sequence[Mapping],
    max_slots: int = 40,
) -> str:
    """Render per-shard replay time per slot as a slot × shard table.

    Scans the flattened span records for ``slot`` spans (the simulator
    stamps each with its ``index`` attr) and the ``shard<k>`` subtrees
    nested beneath them.  Each cell is the shard's total phase time in
    milliseconds; ``rounds`` is the slot's fixpoint round count (the
    ``step_sim`` call count, identical across shards).  Slot spans
    carrying the per-phase attrs (``t_solve_ms``/``t_replay_ms``)
    additionally get ``solve ms``/``replay ms`` columns.  Returns ``""``
    when the trace has no sharded-replay spans.
    """
    rows: list[dict] = []
    shard_ids: set[int] = set()
    phase_cols: set[str] = set()
    current: Optional[dict] = None
    slot_depth = 0
    _PHASE_ATTRS = (
        ("t_solve_ms", "solve ms"),
        ("t_replay_ms", "replay ms"),
    )
    for record in span_records:
        name = record.get("name", "")
        depth = int(record.get("depth", 0))
        if name == "slot":
            attrs = record.get("attrs", {})
            current = {"slot": attrs.get("index", len(rows))}
            for attr, col in _PHASE_ATTRS:
                if attr in attrs:
                    current[col] = float(attrs[attr])
                    phase_cols.add(col)
            slot_depth = depth
            rows.append(current)
            continue
        if current is None or depth <= slot_depth:
            current = None
            continue
        match = _SHARD_NAME.match(name)
        if match:
            shard = int(match.group(1))
            shard_ids.add(shard)
            key = f"shard{shard} ms"
            current[key] = current.get(key, 0.0) + record["duration"] * 1e3
        elif name == "step_sim":
            calls = record.get("attrs", {}).get("calls")
            if calls is not None:
                current["rounds"] = max(current.get("rounds", 0), int(calls))
    rows = [r for r in rows if len(r) > 1]
    if not rows or not shard_ids:
        return ""
    truncated = len(rows) > max_slots
    rows = rows[:max_slots]
    columns = ["slot"] + [f"shard{k} ms" for k in sorted(shard_ids)]
    for _, col in _PHASE_ATTRS:
        if col in phase_cols:
            columns.append(col)
    if any("rounds" in r for r in rows):
        columns.append("rounds")
    text = format_table(rows, columns=columns, title="per-shard replay time")
    if truncated:
        text += f"\n… ({max_slots} slots shown)"
    return text


#: Preferred flight-recorder column order; anything else is appended sorted.
_SNAPSHOT_COLUMNS = (
    "rss_kb",
    "requests",
    "completed",
    "cold_starts",
    "replay_rounds",
    "shard_rounds",
    "shard_exchange_rounds",
    "t_generate",
    "t_solve",
    "t_replay",
    "t_observe",
)


def format_snapshot_table(
    snapshots: Sequence[Mapping],
    max_rows: int = 40,
) -> str:
    """Render flight-recorder snapshots as a per-slot runtime table.

    One row per ring entry (oldest first), flattening each snapshot's
    ``data`` dict into columns — well-known fields first in
    :data:`_SNAPSHOT_COLUMNS` order, any extras appended sorted.
    """
    if not snapshots:
        return ""
    keys: set = set()
    rows = []
    for snap in snapshots:
        data = snap.get("data", {})
        keys.update(data)
        rows.append({"slot": snap.get("slot"), "t (s)": snap.get("time"), **data})
    columns = ["slot", "t (s)"]
    columns += [k for k in _SNAPSHOT_COLUMNS if k in keys]
    columns += sorted(keys.difference(_SNAPSHOT_COLUMNS))
    truncated = len(rows) > max_rows
    rows = rows[:max_rows]
    text = format_table(rows, columns=columns, title="flight recorder")
    if truncated:
        text += f"\n… ({max_rows} snapshots shown)"
    return text


def render_trace_report(path: str, max_spans: int = 120) -> str:
    """Render a full plain-text report of one ``--trace`` JSONL file.

    Sections (each omitted when the trace has no matching records):
    span time tree, histogram quantile table, per-shard slot timeline,
    flight-recorder timeline, and the counter/gauge catalog.  This is
    what ``repro report <trace.jsonl>`` prints.
    """
    trace = load_trace(path)
    meta = trace["meta"] or {}
    header = (
        f"trace report: {path}\n"
        f"name {meta.get('name', '?')!r}, schema {meta.get('schema', '?')}, "
        f"{len(trace['spans'])} spans, {len(trace['counters'])} counters, "
        f"{len(trace['hists'])} histograms, {len(trace['snapshots'])} snapshots"
    )
    sections = [header]
    tree = format_span_tree(trace["spans"], max_spans=max_spans)
    if tree:
        sections.append("spans\n" + tree)
    for text in (
        format_hist_table(trace["hists"]),
        format_shard_timeline(trace["spans"]),
        format_snapshot_table(trace["snapshots"]),
        format_counters(trace["counters"], trace["gauges"]),
    ):
        if text:
            sections.append(text)
    return "\n\n".join(sections)
