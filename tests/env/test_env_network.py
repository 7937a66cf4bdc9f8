"""Tests for repro.env.network: transfer times, drops, per-device spreads."""

import math

import numpy as np
import pytest

from repro.env.network import SERVER, NetworkModel


class TestDefaultNetwork:
    def test_everything_is_free(self):
        net = NetworkModel()
        assert net.is_instant
        assert net.drop_prob == 0.0
        assert net.transfer_time(SERVER, 0) == 0.0
        assert net.transfer_time(0, 1, model_units=5.0) == 0.0
        assert math.isinf(net.bandwidth(0, 1))
        np.testing.assert_array_equal(
            net.server_transfer_times(np.arange(3), 4.0), np.zeros(3)
        )


class TestLinks:
    def test_latency_plus_bandwidth(self):
        net = NetworkModel(latency=0.1, bandwidth=4.0)
        assert net.transfer_time(SERVER, 0) == pytest.approx(0.35)
        # Two model units (SCAFFOLD): twice the serialization term.
        assert net.transfer_time(SERVER, 0, model_units=2.0) == pytest.approx(0.6)

    @pytest.mark.parametrize("units", [1.0, 0.37, 2.0])
    @pytest.mark.parametrize("src,dst", [(SERVER, 3), (3, SERVER), (2, 5)])
    def test_zero_spreads_are_latency_plus_units_over_bandwidth(
        self, src, dst, units
    ):
        """Bitwise: without spreads every link is the base formula."""
        net = NetworkModel(latency=0.05, bandwidth=20.0, peer_latency=0.07,
                           peer_bandwidth=3.0, seed=11)
        lat, bw = (0.05, 20.0) if SERVER in (src, dst) else (0.07, 3.0)
        assert net.transfer_time(src, dst, units) == lat + units / bw

    def test_server_transfer_times_match_scalar_links(self):
        """The vectorized server read equals the scalar loop bitwise, with
        and without spreads, scalar or per-sender unit sizes."""
        ids = np.array([4, 0, 9, 4, 2])
        units = np.array([1.0, 0.25, 0.5, 2.0, 0.1])
        for net in (
            NetworkModel(latency=0.05, bandwidth=20.0),
            NetworkModel(latency=0.08, bandwidth=5.0, latency_spread=1.0,
                         bandwidth_spread=0.5, seed=3),
        ):
            for u in (1.0, units):
                got = net.server_transfer_times(ids, u)
                want = [
                    net.transfer_time(SERVER, int(d), float(x))
                    for d, x in zip(ids, np.broadcast_to(u, ids.shape))
                ]
                np.testing.assert_array_equal(got, want)

    def test_infinite_bandwidth_is_latency_only(self):
        net = NetworkModel(latency=0.2)
        assert net.transfer_time(SERVER, 3, model_units=100.0) == pytest.approx(0.2)

    def test_zero_bandwidth_guard(self):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            NetworkModel(bandwidth=0.0)
        with pytest.raises(ValueError, match="peer_bandwidth must be positive"):
            NetworkModel(peer_bandwidth=-1.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="latency"):
            NetworkModel(latency=-0.1)
        with pytest.raises(ValueError, match="peer_latency"):
            NetworkModel(peer_latency=-0.1)

    @pytest.mark.parametrize(
        "field",
        ["latency", "bandwidth", "peer_latency", "peer_bandwidth",
         "latency_spread", "bandwidth_spread", "drop_prob"],
    )
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            NetworkModel(**{field: math.nan})

    def test_drop_prob_validation(self):
        with pytest.raises(ValueError):
            NetworkModel(drop_prob=1.0)
        with pytest.raises(ValueError):
            NetworkModel(drop_prob=-0.1)

    def test_peer_overrides(self):
        net = NetworkModel(latency=0.5, bandwidth=1.0,
                           peer_latency=0.0, peer_bandwidth=math.inf)
        assert net.transfer_time(SERVER, 0) == pytest.approx(1.5)
        assert net.transfer_time(0, 1) == 0.0  # peer hops free

    def test_equal_peer_delay_on_every_hop(self):
        """The paper's simplification: one delay on every peer link."""
        net = NetworkModel(latency=0.1, bandwidth=2.0, peer_latency=0.3,
                           peer_bandwidth=2.0)
        hops = {net.transfer_time(s, d) for s, d in [(0, 1), (5, 2), (1, 0)]}
        assert len(hops) == 1
        assert hops.pop() == pytest.approx(0.8)

    def test_is_instant_detection(self):
        assert NetworkModel().is_instant
        assert not NetworkModel(latency=0.1).is_instant
        assert not NetworkModel(bandwidth=5.0).is_instant
        assert not NetworkModel(peer_latency=0.1).is_instant
        # Dropping alone does not make links slow.
        assert NetworkModel(drop_prob=0.5).is_instant


class TestSpreads:
    def test_deterministic_per_device(self):
        a = NetworkModel(latency=0.1, latency_spread=0.5, seed=7)
        b = NetworkModel(latency=0.1, latency_spread=0.5, seed=7)
        for dev in (0, 3, 11):
            assert a.transfer_time(SERVER, dev) == b.transfer_time(SERVER, dev)

    def test_query_order_does_not_matter(self):
        """A device's draw is keyed by its id: querying a large id first
        (growing the factor table) or a vector first changes nothing."""
        a = NetworkModel(latency=0.1, bandwidth=3.0, latency_spread=1.0,
                         bandwidth_spread=1.0, seed=5)
        b = NetworkModel(latency=0.1, bandwidth=3.0, latency_spread=1.0,
                         bandwidth_spread=1.0, seed=5)
        b.server_transfer_times(np.array([40, 7]))
        b.transfer_time(12, 3)
        for src, dst in [(SERVER, 3), (3, 12), (7, SERVER), (40, 2)]:
            assert a.transfer_time(src, dst, 0.5) == b.transfer_time(src, dst, 0.5)

    def test_spread_differentiates_devices(self):
        net = NetworkModel(latency=0.1, latency_spread=1.0, seed=0)
        times = {net.transfer_time(SERVER, d) for d in range(8)}
        assert len(times) > 1

    def test_seed_changes_draws(self):
        a = NetworkModel(latency=0.1, latency_spread=1.0, seed=0)
        b = NetworkModel(latency=0.1, latency_spread=1.0, seed=1)
        assert any(
            a.transfer_time(SERVER, d) != b.transfer_time(SERVER, d)
            for d in range(8)
        )

    def test_bandwidth_spread(self):
        net = NetworkModel(bandwidth=10.0, bandwidth_spread=1.0, seed=2)
        bws = {net.bandwidth(SERVER, d) for d in range(8)}
        assert len(bws) > 1
        assert all(bw > 0 for bw in bws)

    def test_peer_hops_vary_per_destination(self):
        net = NetworkModel(latency=0.2, latency_spread=1.0, seed=3)
        hops = {net.transfer_time(0, d) for d in (1, 2, 3, 4)}
        assert len(hops) > 1

    def test_spreads_leave_ideal_links_instant(self):
        net = NetworkModel(latency_spread=1.0, bandwidth_spread=1.0)
        assert net.is_instant
        assert net.transfer_time(0, 1, 3.0) == 0.0
