"""Observability: span tracing, counters, trace export and logging.

The instrumentation contract for the rest of the package:

* read the ambient tracer with :func:`current_tracer` — it defaults to
  the no-op :data:`NULL_TRACER`, so call sites need no enabled check for
  spans and counter increments;
* gate any *extra computation* done only for telemetry behind
  ``tracer.enabled`` so disabled runs stay at full speed;
* never let telemetry change results: tracing must be observational
  (the tier-1 suite asserts bit-identical solver outputs on vs off).

See docs/OBSERVABILITY.md for the trace schema, counter catalog and
CLI usage (``--trace out.jsonl --log-level debug``).
"""

from repro.obs.hist import DEFAULT_ERROR, StreamingHistogram, merged_hist
from repro.obs.metrics import MetricsRegistry, merged
from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder, current_rss_kb
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    use_tracer,
)
from repro.obs.export import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMAS,
    summary,
    trace_records,
    validate_jsonl,
    validate_record,
    write_jsonl,
)
from repro.obs.logsetup import LOG_LEVELS, setup_logging

__all__ = [
    "DEFAULT_ERROR",
    "StreamingHistogram",
    "merged_hist",
    "MetricsRegistry",
    "merged",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "current_rss_kb",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "current_tracer",
    "use_tracer",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMAS",
    "summary",
    "trace_records",
    "validate_jsonl",
    "validate_record",
    "write_jsonl",
    "LOG_LEVELS",
    "setup_logging",
]
