"""Process-pool fan-out for independent experiment cells.

Every experiment sweep — :func:`repro.experiments.harness.sweep`,
:func:`repro.experiments.sweeps.grid_sweep` and the figure generators —
maps one top-level cell function over a list of picklable tasks with
:func:`parallel_map`.  The caller picks the worker count via ``n_jobs``
(``1`` — serial; ``>1`` — that many workers; ``0``/``-1`` — every
CPU).  Workers are processes (``ProcessPoolExecutor``): true multi-core
for CPU-bound Python work, but ``fn``/items must pickle and each worker
pays interpreter + import startup.

Tracing is decided here and nowhere else.  Pool workers cannot share
the parent's tracer, so when the ambient :mod:`repro.obs` tracer is
enabled every cell runs under a private ``Tracer`` named
``"<fn>[<i>]"`` and its picklable payload is merged back into the
ambient tracer in item order.  Serial runs take the same route, so
traced counters and span shape do not depend on ``n_jobs``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Optional, Sequence, TypeVar

from repro.obs import Tracer, current_tracer, use_tracer

T = TypeVar("T")
R = TypeVar("R")


def effective_workers(n_jobs: int) -> int:
    """Resolve an ``n_jobs`` request into a concrete worker count (>= 1).

    A positive ``n_jobs`` is honoured as given — above the CPU count
    too, so a single-core runner still exercises the pool path;
    ``0``/``-1`` mean every CPU; anything below ``-1`` raises.
    """
    if n_jobs in (0, -1):
        return os.cpu_count() or 1
    if n_jobs < -1:
        raise ValueError(f"n_jobs must be >= -1, got {n_jobs}")
    return n_jobs


def chunk(items: Sequence[T], n_chunks: int) -> list[list[T]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, balanced chunks."""
    if n_chunks <= 0:
        raise ValueError(f"n_chunks must be positive, got {n_chunks}")
    n = len(items)
    n_chunks = min(n_chunks, n) or 1
    out: list[list[T]] = []
    base, extra = divmod(n, n_chunks)
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        out.append(list(items[start : start + size]))
        start += size
    return [c for c in out if c]


def _apply_chunk(
    fn: Callable[[T], R], cells: list[tuple[int, T]], traced: bool
) -> list[tuple[R, Optional[dict]]]:
    """Run ``(index, item)`` cells; each under a private tracer when ``traced``."""
    out: list[tuple[R, Optional[dict]]] = []
    for i, item in cells:
        if not traced:
            out.append((fn(item), None))
            continue
        tracer = Tracer(f"{fn.__name__}[{i}]")
        with use_tracer(tracer):
            result = fn(item)
        out.append((result, tracer.payload()))
    return out


def parallel_map(
    fn: Callable[[T], R], items: Sequence[T], n_jobs: int = 1
) -> list[R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Results preserve input order.  Runs serially — no pool is created
    at all — when ``n_jobs`` resolves to one worker or there are fewer
    than two items; otherwise the pool never holds more processes than
    there are chunks of work.  Under an enabled ambient tracer each
    cell is traced privately and merged back (module docstring).
    ``fn``'s other side effects happen in the worker and are lost.
    """
    cells = list(enumerate(items))
    workers = effective_workers(n_jobs)
    ambient = current_tracer()
    if workers == 1 or len(cells) < 2:
        pairs = _apply_chunk(fn, cells, ambient.enabled)
    else:
        chunks = chunk(cells, workers * 4)
        with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            futures = [
                pool.submit(_apply_chunk, fn, c, ambient.enabled) for c in chunks
            ]
            pairs = [pair for fut in futures for pair in fut.result()]
    if ambient.enabled:
        for _, payload in pairs:
            ambient.merge_payload(payload)
    return [result for result, _ in pairs]
