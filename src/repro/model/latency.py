"""Completion-time model (paper Eq. 2 and Eq. 7).

The completion time of request ``u_h`` is

    D_h = d_in^h + Σ_i d_c^h(m_i) + Σ_e d_l^h(e) + d_out^h

with upload delay ``d_in = r_in / B(l'_{home, v_s})`` (zero when the
first instance is local), processing delays ``q(m_i)/c(v_k)``,
inter-service transfers priced over virtual links, and result return
``d_out = r_out / B(l'_{v_d, home})``.

Two latency models are supported (see DESIGN.md §2):

* ``chain`` — transfers run between *consecutive* assigned nodes
  (physically accurate Eq. 2);
* ``star`` — every transmission-computation cycle is priced from the
  user's home node (the form used by Eq. 7 and all of SoCL's internal
  quantities ψ, Δ, D).

All functions are vectorized over the whole workload via the padded
assignment matrices of :class:`repro.model.placement.Routing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.model.instance import ProblemInstance
from repro.model.placement import Routing


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-request decomposition of Eq. (2)."""

    d_in: np.ndarray
    d_compute: np.ndarray
    d_link: np.ndarray
    d_out: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.d_in + self.d_compute + self.d_link + self.d_out


def _components(
    instance: ProblemInstance,
    assignment: np.ndarray,
    model: Optional[str],
    rows: Optional[np.ndarray] = None,
) -> LatencyBreakdown:
    """Eq. (2) terms of every request, or of the requests in ``rows``.

    With ``rows`` the terms cover only those requests, in that order,
    and ``assignment`` holds just their rows (a request may appear more
    than once, routed differently).  Each entry is computed by the same
    elementwise code as the full call, so it is bit-identical to the
    matching entry of the full result under the same assignment
    (:class:`~repro.model.engine.BatchRouter` prices several placements
    in one call and splices the entries into per-request latency
    vectors).
    """
    model = model or instance.config.latency_model
    if model not in ("chain", "star"):
        raise ValueError(f"unknown latency model {model!r}")

    def take(x: np.ndarray) -> np.ndarray:
        return x if rows is None else x[rows]

    a = assignment  # (H or len(rows), L) extended node indices, -1 padding
    mask = take(instance.chain_mask)
    inv = instance.inv_rate
    homes = take(instance.homes)
    chain = take(instance.chain_matrix)
    H, L = a.shape

    # Replace padding with 0 for safe fancy indexing; masked out later.
    a_safe = np.where(mask, a, 0)
    chain_safe = np.where(mask, chain, 0)

    # d_in: upload to the first assigned node.
    first = a_safe[:, 0]
    d_in = take(instance.data_in) * inv[homes, first]

    # processing: q(m_i) / c(node) at every valid position.
    q = instance.service_compute[chain_safe]
    c = instance.compute_ext[a_safe]
    d_compute = np.where(mask, q / c, 0.0).sum(axis=1)

    # link transfers
    if L > 1:
        if model == "chain":
            src = a_safe[:, :-1]
            dst = a_safe[:, 1:]
            edge_valid = mask[:, 1:]
            d_link = np.where(
                edge_valid,
                take(instance.edge_data_matrix)[:, : L - 1] * inv[src, dst],
                0.0,
            ).sum(axis=1)
        else:  # star: each cycle from the user's home node
            # position 0's inflow is d_in (already counted); later
            # positions ship their inflow from home.
            inflow = take(instance.inflow_matrix)[:, 1:]
            dst = a_safe[:, 1:]
            edge_valid = mask[:, 1:]
            d_link = np.where(
                edge_valid, inflow * inv[homes[:, None], dst], 0.0
            ).sum(axis=1)
    else:
        d_link = np.zeros(H)

    # d_out: return from the last assigned node.
    last_pos = take(instance.chain_lengths) - 1
    last = a_safe[np.arange(H), last_pos]
    d_out = take(instance.data_out) * inv[last, homes]

    return LatencyBreakdown(d_in=d_in, d_compute=d_compute, d_link=d_link, d_out=d_out)


def total_latency(
    instance: ProblemInstance,
    routing: Routing,
    model: Optional[str] = None,
) -> np.ndarray:
    """Per-request completion times ``D_h``, shape ``(H,)``.

    ``model`` overrides the instance's configured latency model (used by
    the star-vs-chain ablation).
    """
    return _components(instance, routing.assignment, model).total


def request_latency(
    instance: ProblemInstance,
    routing: Routing,
    h: int,
    model: Optional[str] = None,
) -> float:
    """Completion time of a single request (convenience wrapper)."""
    return float(total_latency(instance, routing, model)[h])


def latency_breakdown(
    instance: ProblemInstance,
    routing: Routing,
    model: Optional[str] = None,
) -> LatencyBreakdown:
    """Full per-request decomposition into in/compute/link/out terms."""
    return _components(instance, routing.assignment, model)
