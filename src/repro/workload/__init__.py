"""Workload models: user requests, spatial placement, traces, mobility.

Covers the user side of the paper's system model: user requests
``u_h = {M_h, E_h}`` (chains of microservices with per-edge data flows),
their spatial association with edge servers (``U_k``), the time-varying
request-volume traces that motivate the work (Fig. 4), neighbour-hop
user mobility for the 4-hour Kubernetes trace experiment (Fig. 10), and
an Alibaba-cluster-style call-graph synthesizer with the similarity
analysis of Fig. 3.
"""

from repro.workload.requests import (
    RequestBatch,
    UserRequest,
    requests_by_server,
    services_in_requests,
)
from repro.workload.users import (
    WorkloadSpec,
    generate_request_windows,
    generate_requests,
    place_users,
)
from repro.workload.trace import TemporalTrace, diurnal_rate, generate_arrivals
from repro.workload.mobility import RandomWaypointMobility
from repro.workload.alibaba import (
    CallGraphTrace,
    synthesize_traces,
    trace_similarity,
    similarity_matrix,
    service_similarity_profile,
)

__all__ = [
    "RequestBatch",
    "UserRequest",
    "requests_by_server",
    "services_in_requests",
    "generate_requests",
    "generate_request_windows",
    "place_users",
    "WorkloadSpec",
    "TemporalTrace",
    "diurnal_rate",
    "generate_arrivals",
    "RandomWaypointMobility",
    "CallGraphTrace",
    "synthesize_traces",
    "trace_similarity",
    "similarity_matrix",
    "service_similarity_profile",
]
