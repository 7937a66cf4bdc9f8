"""Tests for TAFedAvg's staleness-damped mixing (FedAsync-style)."""

import numpy as np
import pytest

from repro.baselines.tafedavg import TAFedAvgConfig, TAFedAvgServer


class TestStalenessConfig:
    def test_default_off(self):
        assert TAFedAvgConfig().staleness_exponent == 0.0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            TAFedAvgConfig(staleness_exponent=-0.5)


class TestStalenessBehaviour:
    def test_staleness_changes_result(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        outs = {}
        for exp in (0.0, 1.0):
            srv = TAFedAvgServer(
                tiny_devices, test_set,
                TAFedAvgConfig(local_epochs=1, alpha=0.3,
                               staleness_exponent=exp, seed=4),
            )
            g = np.zeros(srv.trainer.dim)
            outs[exp] = srv.run_round(1, tiny_devices.device_ids, g)
        assert not np.allclose(outs[0.0], outs[1.0])

    def test_fresh_uploads_not_damped(self, tiny_split, tiny_trainer):
        """A single device never sees a stale global (its view is always
        the latest version), so the exponent must not change anything."""
        from repro.datasets.partition import iid_partition
        from repro.device import make_fleet

        train_set, test_set = tiny_split
        parts = iid_partition(train_set, 1, seed=0)
        outs = {}
        for exp in (0.0, 3.0):
            devices = make_fleet(train_set, parts, np.array([0.25]), tiny_trainer)
            srv = TAFedAvgServer(
                devices, test_set,
                TAFedAvgConfig(local_epochs=1, alpha=0.3,
                               staleness_exponent=exp, seed=4),
            )
            g = np.zeros(srv.trainer.dim)
            outs[exp] = srv.run_round(1, devices.device_ids, g)
        np.testing.assert_array_equal(outs[0.0], outs[3.0])

    def test_learns_with_staleness_on(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        result = TAFedAvgServer(
            tiny_devices, test_set,
            TAFedAvgConfig(rounds=6, local_epochs=1, alpha=0.3,
                           staleness_exponent=0.5),
        ).fit()
        assert result.final_accuracy > 1.5 / test_set.num_classes
