"""Tests for the FedHiSyn server (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.fedhisyn import FedHiSynConfig, FedHiSynServer


class TestFedHiSynConfig:
    def test_defaults(self):
        cfg = FedHiSynConfig()
        assert cfg.num_classes == 10
        assert cfg.ring_order == "small_to_large"
        assert cfg.aggregation == "uniform"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_classes=0),
            dict(ring_order="spiral"),
            dict(aggregation="median"),
            dict(combine="sum"),
            dict(round_length_multiplier=0.0),
        ],
    )
    def test_invalid_raises(self, kwargs):
        with pytest.raises(ValueError):
            FedHiSynConfig(**kwargs)


class TestFedHiSynServer:
    def make(self, devices, test_set, **kwargs):
        kwargs.setdefault("rounds", 3)
        kwargs.setdefault("num_classes", 3)
        kwargs.setdefault("local_epochs", 1)
        return FedHiSynServer(devices, test_set, FedHiSynConfig(**kwargs))

    def test_fit_improves_accuracy(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = self.make(tiny_devices, test_set, rounds=6)
        result = srv.fit()
        assert result.final_accuracy > 1.5 / test_set.num_classes

    def test_transfer_accounting_per_round(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = self.make(tiny_devices, test_set, rounds=2)
        result = srv.fit()
        n = len(tiny_devices)
        # synchronous: down + up per participant per round, nothing more.
        assert result.history.server_transfers[-1] == 2 * 2 * n

    def test_peer_transfers_recorded(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = self.make(tiny_devices, test_set, rounds=1)
        srv.fit()
        assert srv.meter.peer > 0  # rings actually exchanged models

    def test_devices_never_idle(self, tiny_devices, tiny_split):
        """Every participant completes floor(R/t) units (>=1)."""
        _, test_set = tiny_split
        srv = self.make(tiny_devices, test_set, rounds=1)
        srv.fit()
        stats = srv.last_round_stats
        times = tiny_devices.unit_times
        duration = times.max()
        for dev_id in tiny_devices.device_ids.tolist():
            expected = max(1, int(duration / times[dev_id] + 1e-9))
            assert stats.units_completed[dev_id] == expected

    def test_class_time_aggregation_runs(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = self.make(tiny_devices, test_set, aggregation="class_time")
        result = srv.fit()
        assert np.isfinite(result.final_weights).all()

    def test_ring_order_variants_run(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        for order in ("small_to_large", "large_to_small", "random"):
            srv = self.make(tiny_devices, test_set, rounds=1, ring_order=order)
            result = srv.fit()
            assert np.isfinite(result.final_weights).all()

    def test_k_exceeding_participants_degrades_to_singletons(
        self, tiny_devices, tiny_split
    ):
        _, test_set = tiny_split
        srv = self.make(tiny_devices, test_set, rounds=1, num_classes=100)
        srv.fit()
        # distinct unit times in the fixture: 3 -> k-means can make at most
        # 3 classes; peer sends only within multi-member rings.
        assert srv.meter.peer >= 0

    def test_average_combine_mode(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = self.make(tiny_devices, test_set, combine="average")
        result = srv.fit()
        assert np.isfinite(result.final_weights).all()

    def test_partial_participation(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        srv = self.make(tiny_devices, test_set, participation=0.5, rounds=4)
        result = srv.fit()
        assert result.history.server_transfers[-1] < 4 * 2 * len(tiny_devices)

    def test_reproducible_given_seed(self, tiny_split, tiny_trainer):
        from repro.datasets.partition import iid_partition
        from repro.device import make_fleet

        train_set, test_set = tiny_split
        parts = iid_partition(train_set, 6, seed=0)
        times = np.array([1.0, 1.0, 0.5, 0.5, 0.25, 0.25])

        def run():
            devices = make_fleet(train_set, parts, times, tiny_trainer)
            srv = FedHiSynServer(
                devices,
                test_set,
                FedHiSynConfig(rounds=2, num_classes=2, local_epochs=1, seed=5),
            )
            w0 = np.zeros(tiny_trainer.dim)
            return srv.fit(initial_weights=w0)

        a, b = run(), run()
        np.testing.assert_array_equal(a.final_weights, b.final_weights)
        assert a.history.accuracies == b.history.accuracies
