"""Tests for the shared FederatedServer scaffolding."""

import numpy as np
import pytest

from repro.core.server import FederatedServer, ServerConfig
from repro.nn.serialization import get_flat_params


class EchoServer(FederatedServer):
    """Trivial algorithm: leave the global model unchanged, one unit cost."""

    method = "echo"

    def run_round(self, round_idx, ids, global_weights):
        self.meter.record_download(len(ids))
        self.meter.record_upload(len(ids))
        self.clock.advance_by(self.round_duration(ids))
        return global_weights


class TestServerConfig:
    def test_defaults_valid(self):
        ServerConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rounds=0),
            dict(participation=0.0),
            dict(participation=1.5),
            dict(local_epochs=0),
            dict(eval_every=0),
        ],
    )
    def test_invalid_raises(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)


class TestFederatedServer:
    def test_requires_devices(self, tiny_devices, tiny_split):
        """The population is a DeviceFleet; anything else — an empty list,
        a list of its ids — is rejected at the boundary."""
        _, test_set = tiny_split
        for not_a_fleet in ([], tiny_devices.device_ids.tolist()):
            with pytest.raises(TypeError, match="make_fleet"):
                EchoServer(not_a_fleet, test_set)

    def test_full_participation_selects_all(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = EchoServer(tiny_devices, test_set, ServerConfig(participation=1.0))
        assert len(srv.select_participants(1)) == len(tiny_devices)

    def test_partial_participation_subset(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = EchoServer(tiny_devices, test_set, ServerConfig(participation=0.5, seed=0))
        sizes = [len(srv.select_participants(r)) for r in range(1, 30)]
        assert min(sizes) >= 1
        assert 2 <= np.mean(sizes) <= 6  # expectation is 4 of 8

    def test_selection_deterministic_per_round(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        a = EchoServer(tiny_devices, test_set, ServerConfig(participation=0.5, seed=3))
        b = EchoServer(tiny_devices, test_set, ServerConfig(participation=0.5, seed=3))
        for r in range(1, 5):
            np.testing.assert_array_equal(
                a.select_participants(r), b.select_participants(r)
            )

    def test_round_duration_is_slowest(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = EchoServer(tiny_devices, test_set)
        assert srv.round_duration(tiny_devices.device_ids) == (
            tiny_devices.unit_times.max()
        )
        assert srv.round_duration(tiny_devices.device_ids[:1]) == (
            tiny_devices.unit_times[0]
        )

    def test_fit_produces_history(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = EchoServer(tiny_devices, test_set, ServerConfig(rounds=4))
        result = srv.fit()
        assert result.method == "echo"
        assert list(result.history.rounds) == [1, 2, 3, 4]
        assert result.history.server_transfers[-1] == 4 * 2 * len(tiny_devices)

    def test_eval_every(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = EchoServer(tiny_devices, test_set, ServerConfig(rounds=5, eval_every=2))
        result = srv.fit()
        assert list(result.history.rounds) == [2, 4, 5]

    def test_initial_weights_override(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = EchoServer(tiny_devices, test_set, ServerConfig(rounds=1))
        w0 = np.zeros_like(get_flat_params(srv.trainer.model))
        result = srv.fit(initial_weights=w0)
        np.testing.assert_array_equal(result.final_weights, w0)

    def test_per_round_unit(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = EchoServer(tiny_devices, test_set, ServerConfig(participation=0.5))
        assert srv.per_round_unit == 2 * 0.5 * len(tiny_devices)

    def test_virtual_clock_advances(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = EchoServer(tiny_devices, test_set, ServerConfig(rounds=3))
        srv.fit()
        assert srv.clock.now == pytest.approx(3 * tiny_devices.unit_times.max())
