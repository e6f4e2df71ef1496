"""The per-user request generator, frozen as an input stream for tests.

:func:`repro.workload.users.generate_requests` samples every chain from
the exact chain catalog in one batched draw.  Before it did, it walked
the dependency graph once per user with :func:`sample_chain`, drawing
edge noise, upload and response volumes user by user.  The engine
golden digests (serial descent, outage traces, fault paths, shard
telemetry) were recorded on that per-user stream.  They pin the
engines, not the workload, so their suites run on this verbatim copy of
the old loop through the ``per_user_stream`` fixture instead of being
re-recorded.  It is a test input, not a second generator: nothing under
``src/`` calls it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.microservices.application import Application
from repro.microservices.chains import sample_chain
from repro.network.topology import EdgeNetwork
from repro.utils.rng import SeedLike, as_generator
from repro.workload.requests import RequestBatch
from repro.workload.users import WorkloadSpec, place_users


def per_user_requests(
    network: EdgeNetwork,
    app: Application,
    spec: WorkloadSpec,
    rng: SeedLike = None,
    homes: Optional[Sequence[int]] = None,
) -> RequestBatch:
    """Generate ``spec.n_users`` requests with one chain walk per user.

    Same signature and output type as
    :func:`repro.workload.users.generate_requests`; the RNG draw order
    is placement, then per user: the chain, its per-edge noise, then
    ``data_in``, then ``data_out``.
    """
    gen = as_generator(rng)
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

    douts = [app.service(i).data_out for i in range(app.n_services)]
    n = spec.n_users
    chains_flat: list[int] = []
    edge_flat: list[float] = []
    offsets = np.empty(n + 1, dtype=np.int64)
    offsets[0] = 0
    data_in = np.empty(n, dtype=np.float64)
    data_out = np.empty(n, dtype=np.float64)
    for h in range(n):
        chain = sample_chain(
            app,
            gen,
            length_bias=spec.length_bias,
            min_length=spec.min_chain,
            max_length=spec.max_chain,
        )
        # Draw order matches the original per-object generator exactly:
        # per-edge noise first, then data_in, then data_out.
        for a in chain[:-1]:
            edge_flat.append(
                float(
                    spec.data_scale
                    * douts[a]
                    * (1.0 + gen.uniform(-spec.edge_noise, spec.edge_noise))
                )
            )
        chains_flat.extend(chain)
        offsets[h + 1] = len(chains_flat)
        data_in[h] = float(spec.data_scale * gen.uniform(*spec.data_in_range))
        data_out[h] = float(spec.data_scale * gen.uniform(*spec.data_out_range))
    return RequestBatch(
        index=np.arange(n, dtype=np.int64),
        homes=homes,
        chains=np.array(chains_flat, dtype=np.int64),
        chain_offsets=offsets,
        data_in=data_in,
        data_out=data_out,
        edge_data=np.array(edge_flat, dtype=np.float64),
        validate=False,
    )
