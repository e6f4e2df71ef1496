"""Hierarchical span tracer with a true no-op disabled mode.

The SoCL pipeline is instrumented against the *ambient* tracer —
:func:`current_tracer` — which defaults to a singleton
:class:`NullTracer` whose spans and counters do nothing and allocate
nothing, so uninstrumented runs pay only an attribute lookup per call
site.  Enabling tracing is scoped, not global:

>>> from repro.obs import Tracer, use_tracer
>>> tracer = Tracer("demo")
>>> with use_tracer(tracer):
...     with tracer.span("outer"):
...         with tracer.span("inner", detail=1):
...             pass
>>> [s.name for s in tracer.roots]
['outer']

Spans nest via an explicit stack (``tracer.span`` inside a ``with``
block attaches to the innermost open span), carry free-form attributes,
and record wall-clock durations from ``time.perf_counter`` — the same
clock as :class:`repro.utils.timing.Stopwatch`, so span durations and
the legacy ``stage_times`` agree.  Counters/gauges live in the
attached :class:`~repro.obs.metrics.MetricsRegistry`.

Process-pool workers cannot share the parent's tracer; they build their
own, and the parent folds the picklable :meth:`Tracer.payload` back in
with :meth:`Tracer.merge_payload` (counters add, spans graft under a
per-worker root).  Span structure is **not** thread-safe — only the
owning thread should open spans; counter increments from the ζ-sweep
thread pool are aggregated by the caller after the join instead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.obs.metrics import MetricsRegistry


@dataclass
class Span:
    """One timed, attributed node of the trace tree.

    ``start`` is seconds since the owning tracer's epoch; ``duration``
    is filled when the span's ``with`` block exits.
    """

    name: str
    attrs: dict = field(default_factory=dict)
    start: float = 0.0
    duration: float = 0.0
    children: list["Span"] = field(default_factory=list)

    def set_attr(self, **attrs) -> None:
        """Merge keyword attributes into the span's attrs dict."""
        self.attrs.update(attrs)

    def total_child_time(self) -> float:
        """Sum of the direct children's durations (seconds)."""
        return sum(c.duration for c in self.children)

    def as_dict(self) -> dict:
        """Recursively serialize the span subtree to plain dicts."""
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "start": self.start,
            "duration": self.duration,
            "children": [c.as_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span subtree serialized by :meth:`as_dict`."""
        return cls(
            name=data["name"],
            attrs=dict(data.get("attrs", {})),
            start=float(data.get("start", 0.0)),
            duration=float(data.get("duration", 0.0)),
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )


class _NullSpan:
    """Inert span: context manager and attribute sink that do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set_attr(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled-mode tracer: records nothing, allocates nothing.

    Every method is a constant-time no-op so instrumented hot paths can
    call it unconditionally; cold paths should still gate extra metric
    *computation* on :attr:`enabled`.
    """

    enabled = False

    def span(self, name: str, **attrs) -> _NullSpan:
        """No-op span; returns a shared inert context manager."""
        return _NULL_SPAN

    def inc(self, name: str, value: Union[int, float] = 1) -> None:
        """No-op counter increment."""
        pass

    def set_gauge(self, name: str, value: float) -> None:
        """No-op gauge write."""
        pass

    def observe(self, name: str, value: float) -> None:
        """No-op histogram sample."""
        pass

    def observe_many(self, name: str, values) -> None:
        """No-op histogram bulk ingest."""
        pass

    def attach_span(self, span) -> None:
        """No-op span graft."""
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


#: Shared disabled-mode tracer (stateless, safe to reuse everywhere).
NULL_TRACER = NullTracer()


class Tracer:
    """Enabled-mode tracer: span tree + metrics registry."""

    enabled = True

    def __init__(self, name: str = "trace"):
        self.name = name
        self.roots: list[Span] = []
        self.metrics = MetricsRegistry()
        #: Optional :class:`repro.obs.flight.FlightRecorder`; when set,
        #: its snapshots ride along in :func:`repro.obs.trace_records`.
        self.flight = None
        self._stack: list[Span] = []
        self._epoch = time.perf_counter()

    # -- spans ----------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a child span of the innermost active span (or a root)."""
        sp = Span(name=name, attrs=dict(attrs))
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(sp)
        self._stack.append(sp)
        t0 = time.perf_counter()
        sp.start = t0 - self._epoch
        try:
            yield sp
        finally:
            sp.duration = time.perf_counter() - t0
            self._stack.pop()

    def attach_span(self, span: Span) -> None:
        """Graft a pre-built span subtree under the innermost open span.

        Used to replay timing recorded *outside* the tracer's lexical
        span stack — e.g. a shard's per-phase elapsed times accumulated
        across fixpoint rounds and emitted as one synthetic
        ``shard<k>`` subtree after the rounds finish.  With no span
        open, the subtree becomes a new root.
        """
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(span)

    # -- metrics --------------------------------------------------------
    def inc(self, name: str, value: Union[int, float] = 1) -> None:
        """Add ``value`` (default 1) to the named counter."""
        self.metrics.inc(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        """Record a last-write-wins gauge observation."""
        self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        """Stream one sample into the named histogram."""
        self.metrics.observe(name, value)

    def observe_many(self, name: str, values) -> None:
        """Vectorized bulk ingest into the named histogram."""
        self.metrics.observe_many(name, values)

    @property
    def counters(self) -> dict[str, float]:
        """Name → total for every counter incremented so far."""
        return self.metrics.counters

    @property
    def gauges(self) -> dict[str, float]:
        """Name → last value for every gauge written so far."""
        return self.metrics.gauges

    @property
    def hists(self) -> dict:
        """Name → :class:`~repro.obs.hist.StreamingHistogram` recorded so far."""
        return self.metrics.hists

    # -- cross-process merge -------------------------------------------
    def payload(self) -> dict:
        """Picklable snapshot a pool worker ships back to the parent."""
        return {
            "name": self.name,
            "spans": [s.as_dict() for s in self.roots],
            **self.metrics.as_dict(),
        }

    def merge_payload(self, payload: Optional[dict]) -> None:
        """Fold a worker's :meth:`payload` into this tracer.

        Counters add, gauges last-write-win and histograms merge (see
        :meth:`repro.obs.metrics.MetricsRegistry.merge`); the worker's
        span forest is grafted under one synthetic root named after the
        worker so the merged tree keeps per-cell attribution.  When a
        span is open, the synthetic root nests under it; otherwise it
        becomes a new root.
        """
        if not payload:
            return
        self.metrics.merge(payload)
        spans = [Span.from_dict(s) for s in payload.get("spans", [])]
        if spans:
            root = Span(
                name=payload.get("name", "worker"),
                start=min(s.start for s in spans),
                duration=sum(s.duration for s in spans),
                children=spans,
            )
            self.attach_span(root)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer({self.name!r}, {len(self.roots)} roots, "
            f"{len(self.metrics)} metrics)"
        )


#: Ambient tracer; the pipeline reads it via :func:`current_tracer`.
_CURRENT: ContextVar[Union[Tracer, NullTracer]] = ContextVar(
    "socl_tracer", default=NULL_TRACER
)


def current_tracer() -> Union[Tracer, NullTracer]:
    """The ambient tracer (the shared :data:`NULL_TRACER` when disabled)."""
    return _CURRENT.get()


@contextmanager
def use_tracer(tracer: Union[Tracer, NullTracer]) -> Iterator[Union[Tracer, NullTracer]]:
    """Scope ``tracer`` as the ambient tracer for the enclosed block."""
    token = _CURRENT.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT.reset(token)
