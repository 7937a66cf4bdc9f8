"""Tests for the SCAFFOLD baseline."""

import numpy as np
import pytest

from repro.baselines.scaffold import ScaffoldConfig, ScaffoldServer


class TestScaffold:
    def test_global_lr_validation(self):
        with pytest.raises(ValueError):
            ScaffoldConfig(global_lr=0.0)

    def test_learns(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        result = ScaffoldServer(
            tiny_devices, test_set, ScaffoldConfig(rounds=6, local_epochs=1)
        ).fit()
        assert result.final_accuracy > 1.5 / test_set.num_classes

    def test_double_transfer_cost(self, tiny_devices, tiny_split):
        """Model + control variate = 2 model units each way (Section 6.1)."""
        _, test_set = tiny_split
        srv = ScaffoldServer(tiny_devices, test_set,
                             ScaffoldConfig(rounds=2, local_epochs=1))
        result = srv.fit()
        assert result.history.server_transfers[-1] == 2 * 2 * 2 * len(tiny_devices)

    def test_variates_initialized_zero(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = ScaffoldServer(tiny_devices, test_set, ScaffoldConfig())
        np.testing.assert_array_equal(srv.server_variate, 0.0)
        for dev_id in tiny_devices.device_ids:
            np.testing.assert_array_equal(srv.device_variates.row(dev_id), 0.0)

    def test_variates_update_after_round(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = ScaffoldServer(tiny_devices, test_set,
                             ScaffoldConfig(local_epochs=1))
        g = srv.global_weights.copy()
        srv.run_round(1, tiny_devices.device_ids, g)
        assert np.abs(srv.server_variate).sum() > 0
        for dev_id in tiny_devices.device_ids:
            assert np.abs(srv.device_variates.row(dev_id)).sum() > 0

    def test_variate_mean_invariant(self, tiny_devices, tiny_split):
        """Server variate equals the participation-weighted mean shift:
        after a full-participation round, c == mean_i(c_i)."""
        _, test_set = tiny_split
        srv = ScaffoldServer(tiny_devices, test_set,
                             ScaffoldConfig(local_epochs=1))
        g = srv.global_weights.copy()
        srv.run_round(1, tiny_devices.device_ids, g)
        mean_ci = np.mean(
            [srv.device_variates.row(i) for i in tiny_devices.device_ids], axis=0
        )
        np.testing.assert_allclose(srv.server_variate, mean_ci, rtol=1e-8, atol=1e-12)

    def test_first_round_matches_uniform_fedavg_direction(
        self, tiny_devices, tiny_split
    ):
        """With zero variates the first round is plain (uniformly averaged)
        FedAvg: corrections cancel."""
        _, test_set = tiny_split
        srv = ScaffoldServer(tiny_devices, test_set,
                             ScaffoldConfig(local_epochs=1, seed=2))
        g = np.zeros(srv.trainer.dim)
        ids = tiny_devices.device_ids
        epochs = srv.epochs_for(ids, srv.round_duration(ids))
        new = srv.run_round(1, ids, g)
        stack = np.stack(
            [
                srv.trainer.train(
                    g,
                    tiny_devices.shard(i),
                    int(epochs[i]),
                    stream_key=(i, 1, 0),
                )[0]
                for i in ids.tolist()
            ]
        )
        np.testing.assert_allclose(new, stack.mean(axis=0), rtol=1e-8, atol=1e-12)
