"""Shared utilities: seeded RNG plumbing, timing, parallel map helpers.

These small helpers enforce the repository-wide conventions listed in
DESIGN.md §6: all randomness flows through explicitly passed
``numpy.random.Generator`` objects, wall-clock measurement uses a single
``Stopwatch`` implementation, and every experiment sweep fans its cells
out through one process-pool helper, ``parallel_map``.
"""

from repro.utils.rng import as_generator, spawn, derive_seed
from repro.utils.timing import Stopwatch, timed
from repro.utils.parallel import parallel_map, effective_workers
from repro.utils.validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_in_range,
)

__all__ = [
    "as_generator",
    "spawn",
    "derive_seed",
    "Stopwatch",
    "timed",
    "parallel_map",
    "effective_workers",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_in_range",
]
