"""Edge-network substrate: topology, link rates, shortest paths.

Implements the system model of paper §III.A: a weighted undirected graph
``G(V, L)`` of edge servers with computing capability ``c(v_k)`` (GFLOP/s),
storage ``Φ(v_k)``, and links whose transmission rate follows the Shannon
capacity formula ``b(l) = B(l)·log2(1 + γ·g/N)``.  Indirect node pairs
communicate over hop-shortest routing paths ``π*``; the *virtual link*
between them has channel speed equal to the harmonic mean of the direct
link rates along the path, ``B(l'_{k,q}) = 1 / Σ 1/b(l)`` (paper §IV.A).
"""

from repro.network.topology import EdgeServer, Link, EdgeNetwork
from repro.network.paths import (
    PathTable,
    communication_intensity,
    invert_inverse_rates,
)
from repro.network.generators import stadium_topology, grid_topology

__all__ = [
    "EdgeServer",
    "Link",
    "EdgeNetwork",
    "PathTable",
    "communication_intensity",
    "invert_inverse_rates",
    "stadium_topology",
    "grid_topology",
]
