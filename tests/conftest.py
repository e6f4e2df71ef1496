"""Shared fixtures: small deterministic networks, apps and instances."""

from __future__ import annotations

import numpy as np
import pytest

from repro.microservices import Application, Microservice, eshop_application
from repro.model import ProblemConfig, ProblemInstance
from repro.network import EdgeNetwork, EdgeServer, Link, grid_topology
from repro.workload import UserRequest, WorkloadSpec, generate_requests
from tests.reference_mobility import PerUserMobility
from tests.reference_requests import per_user_requests


@pytest.fixture
def line3_network() -> EdgeNetwork:
    """Three servers in a line: 0 —(fast)— 1 —(slow)— 2."""
    servers = [
        EdgeServer(0, compute=10.0, storage=10.0, position=(0, 0)),
        EdgeServer(1, compute=10.0, storage=10.0, position=(1, 0)),
        EdgeServer(2, compute=5.0, storage=10.0, position=(2, 0)),
    ]
    links = [
        Link(0, 1, bandwidth=40.0, gain=3.0, power=1.0, noise=1.0),
        Link(1, 2, bandwidth=10.0, gain=1.0, power=1.0, noise=1.0),
    ]
    return EdgeNetwork(servers, links)


@pytest.fixture
def diamond_network() -> EdgeNetwork:
    """Four servers: 0-1, 0-2, 1-3, 2-3 (two parallel 2-hop routes)."""
    servers = [
        EdgeServer(k, compute=10.0, storage=6.0, position=(k % 2, k // 2))
        for k in range(4)
    ]
    links = [
        Link(0, 1, bandwidth=50.0, gain=3.0),
        Link(0, 2, bandwidth=20.0, gain=1.0),
        Link(1, 3, bandwidth=50.0, gain=3.0),
        Link(2, 3, bandwidth=20.0, gain=1.0),
    ]
    return EdgeNetwork(servers, links)


@pytest.fixture
def tiny_app() -> Application:
    """Three-service chain a → b → c."""
    services = [
        Microservice(0, "a", compute=1.0, storage=1.0, deploy_cost=100.0, data_out=2.0),
        Microservice(1, "b", compute=2.0, storage=1.0, deploy_cost=150.0, data_out=1.0),
        Microservice(2, "c", compute=1.5, storage=2.0, deploy_cost=120.0, data_out=0.5),
    ]
    return Application(services, [(0, 1), (1, 2)], entrypoints=[0], name="tiny")


@pytest.fixture
def eshop_app() -> Application:
    return eshop_application()


@pytest.fixture
def tiny_instance(line3_network, tiny_app) -> ProblemInstance:
    """Deterministic 4-request instance on the 3-node line."""
    requests = [
        UserRequest(0, home=0, chain=(0, 1, 2), data_in=1.0, data_out=0.5, edge_data=(2.0, 1.0)),
        UserRequest(1, home=0, chain=(0, 1), data_in=1.5, data_out=0.3, edge_data=(2.0,)),
        UserRequest(2, home=2, chain=(0, 1, 2), data_in=2.0, data_out=0.8, edge_data=(2.5, 1.2)),
        UserRequest(3, home=1, chain=(1, 2), data_in=0.8, data_out=0.4, edge_data=(1.0,)),
    ]
    config = ProblemConfig(weight=0.5, budget=2000.0)
    return ProblemInstance(line3_network, tiny_app, requests, config)


@pytest.fixture
def medium_instance(eshop_app) -> ProblemInstance:
    """20-user eshop instance on a 3x3 grid (seeded)."""
    network = grid_topology(3, 3, seed=5)
    requests = generate_requests(
        network, eshop_app, WorkloadSpec(n_users=20, max_chain=5), rng=7
    )
    return ProblemInstance(
        network, eshop_app, requests, ProblemConfig(weight=0.5, budget=6000.0)
    )


@pytest.fixture
def per_user_stream(monkeypatch):
    """Draw the simulator's and the scenarios' inputs per user.

    The engine golden digests were recorded on the per-user request
    stream (``tests/reference_requests.py``) and the per-user mobility
    stream (``tests/reference_mobility.py``); this keeps their inputs
    fixed while the library samples from the chain catalog and draws
    every mover's hop at once.
    """
    monkeypatch.setattr(
        "repro.runtime.simulator.generate_requests", per_user_requests
    )
    monkeypatch.setattr(
        "repro.experiments.scenarios.generate_requests", per_user_requests
    )
    monkeypatch.setattr(
        "repro.runtime.simulator.RandomWaypointMobility", PerUserMobility
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
