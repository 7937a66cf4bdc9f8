"""Failure-injection tests: lost ring hops must never break liveness."""

import numpy as np
import pytest

from repro.env.network import NetworkModel
from repro.simulation.engine import RingRoundEngine

from tests.simulation.test_engine import make_fleet


class TestDropInjection:
    def test_drop_prob_validation(self):
        with pytest.raises(ValueError, match="drop_prob"):
            NetworkModel(drop_prob=1.0)
        with pytest.raises(ValueError, match="drop_prob"):
            NetworkModel(drop_prob=-0.1)

    def test_all_drops_degenerates_to_isolation(self):
        """drop_prob ~ 1: every hop lost, devices train alone (Eq. 7)."""
        devices = make_fleet([1.0, 1.0, 1.0])
        engine = RingRoundEngine(devices, NetworkModel(drop_prob=0.999),
                                 epochs_per_unit=1, drop_seed=0)
        stats = engine.run_round([[0, 1, 2]], np.zeros(3), duration=3.0)
        # peer sends attempted but (almost surely) all dropped
        assert stats.peer_sends == 9
        assert engine.dropped_sends == 9
        for i in devices.device_ids:
            np.testing.assert_allclose(devices.weights_row(i).sum(), 3.0)
            assert devices.weights_row(i).max() == 3.0  # all own-training

    def test_no_drops_by_default(self):
        devices = make_fleet([1.0, 1.0])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        engine.run_round([[0, 1]], np.zeros(2), duration=2.0)
        assert engine.dropped_sends == 0

    def test_partial_drops_keep_progress(self):
        """With 50% loss, every device still completes its unit budget."""
        devices = make_fleet([1.0, 0.5, 0.25, 1.0])
        engine = RingRoundEngine(devices, NetworkModel(drop_prob=0.5),
                                 epochs_per_unit=1, drop_seed=1)
        stats = engine.run_round([[0, 1], [2, 3]], np.zeros(4), duration=1.0)
        assert stats.units_completed == {0: 1, 1: 2, 2: 4, 3: 1}
        assert 0 < engine.dropped_sends <= stats.peer_sends

    def test_drop_seed_reproducible(self):
        def run(seed):
            devices = make_fleet([1.0, 1.0, 1.0])
            engine = RingRoundEngine(devices, NetworkModel(drop_prob=0.5),
                                     epochs_per_unit=1, drop_seed=seed)
            engine.run_round([[0, 1, 2]], np.zeros(3), duration=4.0)
            return engine.dropped_sends, devices.stack_weights(devices.device_ids).copy()

        d1, w1 = run(7)
        d2, w2 = run(7)
        assert d1 == d2
        for a, b in zip(w1, w2):
            np.testing.assert_array_equal(a, b)

    def test_fedhisyn_learns_under_drops(self, tiny_devices, tiny_split):
        """End-to-end: the full framework still converges with lossy links."""
        from repro.core.fedhisyn import FedHiSynConfig, FedHiSynServer

        _, test_set = tiny_split
        srv = FedHiSynServer(
            tiny_devices, test_set,
            FedHiSynConfig(rounds=6, num_classes=3, local_epochs=1),
        )
        srv.engine.network = NetworkModel(drop_prob=0.3)  # ring hops only
        result = srv.fit()
        assert result.final_accuracy > 1.5 / test_set.num_classes


class TestEngineNetwork:
    def test_env_supplies_drop_prob(self):
        from repro.env import make_environment

        network = make_environment("flaky_mobile").network
        engine = RingRoundEngine(make_fleet([1.0]), network)
        assert engine.network is network
        assert engine.network.drop_prob == 0.05

    def test_default_network_is_ideal(self):
        engine = RingRoundEngine(make_fleet([1.0]))
        assert engine.network.is_instant
        assert engine.network.drop_prob == 0.0

    def test_fedhisyn_ring_crosses_the_env_network(self, tiny_devices, tiny_split):
        from repro.core.fedhisyn import FedHiSynConfig, FedHiSynServer
        from repro.env import make_environment

        _, test_set = tiny_split
        srv = FedHiSynServer(
            tiny_devices, test_set, FedHiSynConfig(rounds=1, num_classes=3),
            env=make_environment("satellite"),
        )
        assert srv.engine.network is srv.env.network
