"""User placement and request generation (paper §V.A workload).

Users are associated with the edge server covering their location; the
paper distributes them around base stations near the National Stadium and
samples their service chains from the eshopOnContainers dependency graph
with stochastic dependencies.  :func:`generate_requests` reproduces this:
spatially clustered home assignment (a small number of hot cells receive
most users, matching the stadium scenario) and chains drawn from the
exact chain distribution of the biased dependency walk, computed once
per call by :func:`repro.microservices.chains.chain_catalog` and sampled
for all users in one draw (no walk per user).

Data volumes follow §V.A: per-request upload/response sizes and per-edge
flows derived from each microservice's ``data_out`` with multiplicative
noise, spanning the paper's [1, 80] GB range once scaled by request rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from repro.microservices.application import Application
from repro.microservices.chains import chain_catalog
from repro.network.topology import EdgeNetwork
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive, check_probability
from repro.workload.requests import RequestBatch, UserRequest


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the request generator.

    Attributes
    ----------
    n_users:
        Number of user requests ``|U|``.
    hotspot_fraction:
        Fraction of servers that act as hotspots (crowded cells near the
        stadium).  Hotspots receive ``hotspot_weight`` times the demand
        of ordinary cells.
    hotspot_weight:
        Demand multiplier of hotspot cells.
    length_bias:
        Chain-continuation probability (geometric chain lengths).
    min_chain, max_chain:
        Chain length limits.
    data_in_range, data_out_range:
        Uniform ranges ``(lo, hi)`` (GB) for ``r_in^h`` and ``r_out^h``;
        finite, with ``0 <= lo <= hi``.
    edge_noise:
        Multiplicative jitter on per-edge data flows (±fraction).
    data_scale:
        Global multiplier applied to every data volume (upload, response
        and per-edge flows).  The experiment scenarios use it to bring
        transfer delays into the paper's regime where latency and cost
        terms of the objective are comparable (§V.A).
    """

    n_users: int
    hotspot_fraction: float = 0.25
    hotspot_weight: float = 4.0
    length_bias: float = 0.7
    min_chain: int = 2
    max_chain: int = 6
    data_in_range: tuple[float, float] = (0.5, 2.0)
    data_out_range: tuple[float, float] = (0.2, 1.0)
    edge_noise: float = 0.3
    data_scale: float = 1.0

    def __post_init__(self) -> None:
        check_positive("n_users", self.n_users)
        check_probability("hotspot_fraction", self.hotspot_fraction)
        check_positive("hotspot_weight", self.hotspot_weight)
        check_probability("length_bias", self.length_bias)
        if not (1 <= self.min_chain <= self.max_chain):
            raise ValueError(
                f"invalid chain bounds: min={self.min_chain} max={self.max_chain}"
            )
        check_probability("edge_noise", self.edge_noise)
        check_positive("data_scale", self.data_scale)
        for name in ("data_in_range", "data_out_range"):
            lo, hi = getattr(self, name)
            if not (np.isfinite(lo) and np.isfinite(hi) and 0.0 <= lo <= hi):
                raise ValueError(
                    f"{name} must be finite with 0 <= lo <= hi, got {(lo, hi)}"
                )


def place_users(
    network: EdgeNetwork,
    n_users: int,
    rng: SeedLike = None,
    hotspot_fraction: float = 0.25,
    hotspot_weight: float = 4.0,
) -> np.ndarray:
    """Sample home-server indices for ``n_users`` with spatial hotspots.

    A ``hotspot_fraction`` of servers is designated hot (at least one);
    hot servers are ``hotspot_weight`` times as likely to receive a user.
    Returns an ``(n_users,)`` int array of server indices.
    """
    check_positive("n_users", n_users)
    gen = as_generator(rng)
    n = network.n
    n_hot = max(1, int(round(hotspot_fraction * n)))
    hot = gen.choice(n, size=n_hot, replace=False)
    weights = np.ones(n, dtype=np.float64)
    weights[hot] = hotspot_weight
    weights /= weights.sum()
    return gen.choice(n, size=n_users, p=weights)


def _homes(
    network: EdgeNetwork,
    spec: WorkloadSpec,
    gen: np.random.Generator,
    homes: Optional[Sequence[int]],
) -> np.ndarray:
    """``homes`` as an ``(n_users,)`` int array, placed by ``gen`` if None."""
    if homes is None:
        homes = place_users(
            network,
            spec.n_users,
            gen,
            hotspot_fraction=spec.hotspot_fraction,
            hotspot_weight=spec.hotspot_weight,
        )
    homes = np.asarray(homes, dtype=np.int64)
    if homes.shape != (spec.n_users,):
        raise ValueError(
            f"homes must have shape ({spec.n_users},), got {homes.shape}"
        )
    return homes


def generate_requests(
    network: EdgeNetwork,
    app: Application,
    spec: WorkloadSpec,
    rng: SeedLike = None,
    homes: Optional[Sequence[int]] = None,
) -> RequestBatch:
    """Generate ``spec.n_users`` user requests on ``network`` over ``app``.

    ``homes`` overrides the spatial placement (used by the mobility-driven
    online simulator, which moves users between slots but keeps their
    service chains).

    Every chain is drawn from the exact distribution of
    :func:`repro.microservices.chains.sample_chain`, computed by
    :func:`repro.microservices.chains.chain_catalog`, with one
    ``Generator.choice`` over the catalog; edge noise, ``data_in`` and
    ``data_out`` are then drawn as whole columns.  That is O(1) RNG calls
    per workload.  The stream is seed-stable, but it is not bit-compatible
    with the per-user walk earlier versions ran (one ``sample_chain`` and
    its data draws per user): the same seed now gives a different
    workload from the same distribution.

    Returns a columnar :class:`~repro.workload.requests.RequestBatch`
    (a sequence of :class:`UserRequest` views, so per-request consumers
    are unaffected).
    """
    gen = as_generator(rng)
    homes = _homes(network, spec, gen, homes)
    catalog, probs = chain_catalog(
        app,
        length_bias=spec.length_bias,
        min_length=spec.min_chain,
        max_length=spec.max_chain,
    )
    n = spec.n_users
    pick = gen.choice(len(catalog), size=n, p=probs)
    cat_lengths = np.array([len(c) for c in catalog], dtype=np.int64)
    cat_width = int(cat_lengths.max())
    cat_mat = np.full((len(catalog), cat_width), -1, dtype=np.int64)
    for c, chain in enumerate(catalog):
        cat_mat[c, : len(chain)] = chain
    lengths = cat_lengths[pick]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    picked = cat_mat[pick]
    chains_flat = picked[picked >= 0]

    douts = np.array(
        [app.service(i).data_out for i in range(app.n_services)],
        dtype=np.float64,
    )
    is_last = np.zeros(chains_flat.size, dtype=bool)
    is_last[offsets[1:] - 1] = True
    edge_services = chains_flat[~is_last]
    noise = gen.uniform(
        -spec.edge_noise, spec.edge_noise, size=edge_services.size
    )
    edge_data = spec.data_scale * douts[edge_services] * (1.0 + noise)
    data_in = spec.data_scale * gen.uniform(*spec.data_in_range, size=n)
    data_out = spec.data_scale * gen.uniform(*spec.data_out_range, size=n)
    return RequestBatch(
        index=np.arange(n, dtype=np.int64),
        homes=homes,
        chains=chains_flat,
        chain_offsets=offsets,
        data_in=data_in,
        data_out=data_out,
        edge_data=edge_data,
        validate=False,
    )


def generate_request_windows(
    network: EdgeNetwork,
    app: Application,
    spec: WorkloadSpec,
    rng: SeedLike = None,
    window_size: int = 100_000,
    homes: Optional[Sequence[int]] = None,
):
    """Stream ``spec.n_users`` requests as bounded columnar windows.

    Yields :class:`~repro.workload.requests.RequestBatch` windows of at
    most ``window_size`` requests each (the last may be shorter), so a
    consumer that processes windows one at a time — per-shard replay,
    chunked demand aggregation — holds only ``O(window_size)`` request
    state at once regardless of ``spec.n_users``.

    Home placement happens **once** up front with the parent generator
    (hotspot cells must be consistent across the whole workload — an
    ``(n_users,)`` int array, 8 bytes/user, is the only full-size
    allocation); chain and data sampling then runs per window through
    :func:`generate_requests` on independent spawned child generators,
    so windows can be regenerated or distributed without replaying
    predecessors.  The union of the windows is a valid workload;
    reassemble with :meth:`~repro.workload.requests.RequestBatch.concat`,
    which renumbers ``index`` to the global request order.  The stream
    is seed-stable, but changing ``window_size`` changes the drawn
    workload, and it is not the stream of one :func:`generate_requests`
    call over all users.
    """
    check_positive("window_size", window_size)

    def _windows():
        gen = as_generator(rng)
        all_homes = _homes(network, spec, gen, homes)
        n_windows = -(-spec.n_users // window_size)
        children = gen.spawn(n_windows)
        for w, child in enumerate(children):
            lo = w * window_size
            hi = min(lo + window_size, spec.n_users)
            sub = replace(spec, n_users=hi - lo)
            yield generate_requests(
                network, app, sub, rng=child, homes=all_homes[lo:hi]
            )

    return _windows()


def reindex_requests(requests: Sequence[UserRequest]) -> list[UserRequest]:
    """Return requests with ``index`` renumbered consecutively from 0."""
    return [
        UserRequest(
            index=h,
            home=req.home,
            chain=req.chain,
            data_in=req.data_in,
            data_out=req.data_out,
            edge_data=req.edge_data,
        )
        for h, req in enumerate(requests)
    ]
