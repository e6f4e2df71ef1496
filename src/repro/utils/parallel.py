"""Process-pool fan-out for independent experiment cells.

The experiment harness and sweeps run many independent (scenario × seed
× solver) cells.  The caller picks the worker count via ``n_jobs``
(``1`` — serial; ``>1`` — that many workers, capped at the CPU count;
``0``/``-1`` — all cores).  Workers are processes
(``ProcessPoolExecutor``): true multi-core for CPU-bound Python work,
but ``fn``/items must pickle and each worker pays interpreter + import
startup, so fanning out only pays when the per-item work is substantial.
``parallel_map`` therefore takes a ``min_items_per_worker`` guard that
silently falls back to serial execution for small inputs.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def effective_workers(n_jobs: int, allow_oversubscribe: bool = False) -> int:
    """Resolve an ``n_jobs`` request into a concrete worker count (>= 1).

    By default explicit requests are capped at the CPU count (CPU-bound
    kernels gain nothing beyond it).  ``allow_oversubscribe=True`` honors
    an explicit positive ``n_jobs`` verbatim — the experiment harness
    uses this so sweep cells that block on subprocess solvers (and tests
    on single-core CI runners) can still fan out.
    """
    cpus = os.cpu_count() or 1
    if n_jobs in (0, -1):
        return cpus
    if n_jobs < -1:
        raise ValueError(f"n_jobs must be >= -1, got {n_jobs}")
    if allow_oversubscribe:
        return max(1, n_jobs)
    return max(1, min(n_jobs, cpus))


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


def _apply_chunk(fn: Callable[[T], R], items: list[T]) -> list[R]:
    return [fn(item) for item in items]


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    n_jobs: int = 1,
    min_items_per_worker: int = 8,
    allow_oversubscribe: bool = False,
) -> list[R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Results preserve input order.  Runs serially — no pool is created
    at all — when ``n_jobs`` resolves to one worker **or** the input
    holds fewer than ``min_items_per_worker * 2`` items, so tiny sweeps
    never pay pool startup.  ``allow_oversubscribe`` forwards to
    :func:`effective_workers` and lets an explicit ``n_jobs`` exceed the
    CPU count.  ``fn``'s side effects happen in the worker and are lost.
    """
    items = list(items)
    workers = effective_workers(n_jobs, allow_oversubscribe=allow_oversubscribe)
    if workers == 1 or len(items) < min_items_per_worker * 2:
        return [fn(item) for item in items]

    chunks = chunk(items, workers * 4)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_apply_chunk, fn, c) for c in chunks]
        results: list[R] = []
        for fut in futures:
            results.extend(fut.result())
    return results


def serial_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """Plain list-comprehension map, provided for symmetry in ablations."""
    return [fn(item) for item in items]
