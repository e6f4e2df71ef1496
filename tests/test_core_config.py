"""Tests for repro.core.config (SoCLConfig validation)."""

import pytest

from repro.core import SoCLConfig


class TestSoCLConfig:
    def test_defaults(self):
        cfg = SoCLConfig()
        assert cfg.xi is None
        assert cfg.omega == 0.2
        assert cfg.routing == "optimal"
        assert cfg.relocation

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"xi": 0.0},
            {"xi": -1.0},
            {"xi_percentile": 1.5},
            {"omega": 0.0},
            {"omega": 1.5},
            {"theta": -0.1},
            {"min_degree": 0},
            {"routing": "teleport"},
            {"max_serial_iterations": 0},
            {"max_parallel_rounds": 0},
            {"max_relocation_rounds": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SoCLConfig(**kwargs)

    def test_omega_one_allowed(self):
        assert SoCLConfig(omega=1.0).omega == 1.0

    def test_theta_zero_allowed(self):
        assert SoCLConfig(theta=0.0).theta == 0.0

    def test_with_(self):
        cfg = SoCLConfig().with_(omega=0.5, candidate_nodes=False)
        assert cfg.omega == 0.5
        assert not cfg.candidate_nodes
        assert cfg.theta == SoCLConfig().theta

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SoCLConfig().omega = 0.9

    def test_explicit_xi(self):
        assert SoCLConfig(xi=25.0).xi == 25.0
