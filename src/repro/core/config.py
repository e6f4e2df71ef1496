"""SoCL hyper-parameters (paper §IV).

Separates *algorithm* knobs from the *model* parameters carried by
:class:`repro.model.instance.ProblemConfig`:

* ``xi`` (ξ) — virtual-link strength threshold of Alg. 1.  ``None``
  selects it per service as a percentile of the observed virtual rates
  (``xi_percentile``), which keeps partitions meaningful across widely
  different topologies.
* ``omega`` (ω) — fraction of merge candidates combined per parallel
  round of Alg. 3, "regulating the speed of parallel gradient descent".
* ``theta`` (Θ) — positive disturbance added to the small-scale gradient
  δ = Q' − Q'' + Θ, preventing premature stops on tiny rebounds.
* ``candidate_nodes`` / ``min_degree`` — Theorem 1 candidate filtering
  (degree H(v) > 2); disabling is the corresponding ablation.
* ``storage_planning`` — toggle Alg. 5 (ablation: naive eviction).
* ``relocation`` — cost-neutral instance relocation polish after the
  serial descent (the "adaptive resource utilization" refinement of the
  storage-aware planning mechanism); ``max_relocation_rounds`` bounds it.
* ``routing`` — final routing engine: ``"optimal"`` per-request DP or
  the paper's ``"greedy"`` max-channel-speed reliance rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)


@dataclass(frozen=True)
class SoCLConfig:
    """Hyper-parameters of the SoCL framework."""

    xi: Optional[float] = None
    xi_percentile: float = 0.5
    omega: float = 0.2
    theta: float = 1.0
    candidate_nodes: bool = True
    min_degree: int = 3
    storage_planning: bool = True
    relocation: bool = True
    max_relocation_rounds: int = 8
    routing: str = "optimal"
    max_serial_iterations: int = 10_000
    max_parallel_rounds: int = 1_000

    def __post_init__(self) -> None:
        if self.xi is not None:
            check_positive("xi", self.xi)
        check_probability("xi_percentile", self.xi_percentile)
        if not (0.0 < self.omega <= 1.0):
            raise ValueError(f"omega must be in (0, 1], got {self.omega}")
        check_non_negative("theta", self.theta)
        if self.min_degree < 1:
            raise ValueError(f"min_degree must be >= 1, got {self.min_degree}")
        if self.routing not in ("optimal", "greedy"):
            raise ValueError(
                f"routing must be 'optimal' or 'greedy', got {self.routing!r}"
            )
        check_positive("max_serial_iterations", self.max_serial_iterations)
        check_positive("max_parallel_rounds", self.max_parallel_rounds)
        check_positive("max_relocation_rounds", self.max_relocation_rounds)

    def with_(self, **kwargs) -> "SoCLConfig":
        """Functional update helper."""
        return replace(self, **kwargs)
