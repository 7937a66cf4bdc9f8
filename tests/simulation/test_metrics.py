"""Tests for transmission metering and metrics history."""

import pytest

from repro.simulation.metrics import MetricsHistory, TransmissionMeter


class TestTransmissionMeter:
    def test_counts_accumulate(self):
        m = TransmissionMeter()
        m.record_download(3)
        m.record_upload(2)
        m.record_peer(7)
        assert m.server_down == 3
        assert m.server_up == 2
        assert m.peer == 7
        assert m.server_total == 5

    def test_model_units_scaling(self):
        m = TransmissionMeter()
        m.record_upload(4, model_units=2.0)  # SCAFFOLD-style
        assert m.server_up == 8.0

    def test_negative_raises(self):
        m = TransmissionMeter()
        with pytest.raises(ValueError):
            m.record_download(-1)
        with pytest.raises(ValueError):
            m.record_upload(1, model_units=-0.5)

    def test_snapshot(self):
        m = TransmissionMeter()
        m.record_download(1)
        snap = m.snapshot()
        assert snap["server_total"] == 1.0
        assert snap["peer"] == 0.0


class TestMetricsHistory:
    def make_history(self):
        h = MetricsHistory()
        h.record(1, 1.0, 10.0, 0.3)
        h.record(2, 2.0, 20.0, 0.55)
        h.record(3, 3.0, 30.0, 0.5)
        h.record(4, 4.0, 40.0, 0.7)
        return h

    def test_final_and_best(self):
        h = self.make_history()
        assert h.final_accuracy == 0.7
        assert h.best_accuracy == 0.7
        h2 = MetricsHistory()
        h2.record(1, 1.0, 1.0, 0.9)
        h2.record(2, 2.0, 2.0, 0.4)
        assert h2.best_accuracy == 0.9

    def test_transfers_to_target(self):
        h = self.make_history()
        assert h.transfers_to_target(0.5) == 20.0
        assert h.transfers_to_target(0.99) is None

    def test_relative_cost(self):
        h = self.make_history()
        assert h.relative_cost_to_target(0.5, per_round_unit=10.0) == 2.0
        assert h.relative_cost_to_target(0.99, per_round_unit=10.0) is None

    def test_relative_cost_bad_unit_raises(self):
        with pytest.raises(ValueError):
            self.make_history().relative_cost_to_target(0.5, 0.0)

    def test_monotone_round_enforced(self):
        h = MetricsHistory()
        h.record(2, 1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            h.record(2, 2.0, 2.0, 0.2)

    def test_monotone_transfers_enforced(self):
        h = MetricsHistory()
        h.record(1, 1.0, 5.0, 0.1)
        with pytest.raises(ValueError):
            h.record(2, 2.0, 4.0, 0.2)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            MetricsHistory().final_accuracy


class TestTimeCheckpoints:
    def make_history(self):
        h = MetricsHistory()
        h.record(1, 2.0, 10.0, 0.4)
        h.record(2, 4.0, 20.0, 0.7)
        h.record_time_checkpoint(0.5, 5.0, 0.2)
        h.record_time_checkpoint(1.5, 5.0, 0.55)
        h.record_time_checkpoint(3.0, 15.0, 0.6)
        return h

    def test_checkpoint_series_recorded(self):
        h = self.make_history()
        assert h.checkpoint_times == [0.5, 1.5, 3.0]
        assert h.checkpoint_accuracies == [0.2, 0.55, 0.6]

    def test_equal_checkpoint_times_allowed(self):
        """Several checkpoints can mature inside one synchronous round's
        clock jump and share its evaluation time."""
        h = MetricsHistory()
        h.record_time_checkpoint(1.0, 1.0, 0.1)
        h.record_time_checkpoint(1.0, 1.0, 0.1)
        assert h.checkpoint_times == [1.0, 1.0]

    def test_decreasing_checkpoint_time_raises(self):
        h = self.make_history()
        with pytest.raises(ValueError):
            h.record_time_checkpoint(2.0, 20.0, 0.8)

    def test_decreasing_checkpoint_transfers_raises(self):
        h = self.make_history()
        with pytest.raises(ValueError):
            h.record_time_checkpoint(5.0, 1.0, 0.8)

    def test_time_to_target_merges_both_series(self):
        h = self.make_history()
        # 0.55 first appears in the checkpoint series at t=1.5, earlier
        # than the round series' 0.7 at t=4.0.
        assert h.time_to_target(0.5) == 1.5
        # 0.65 is only ever reached by the round series (t=4.0).
        assert h.time_to_target(0.65) == 4.0
        assert h.time_to_target(0.95) is None

    def test_time_to_target_empty_history(self):
        assert MetricsHistory().time_to_target(0.1) is None

    def test_round_trip_preserves_checkpoints(self):
        h = self.make_history()
        restored = MetricsHistory.from_dict(h.to_dict())
        assert restored.to_dict() == h.to_dict()

    def test_from_dict_tolerates_legacy_payloads(self):
        """Payloads written before the checkpoint series existed (old
        campaign caches, pre-refactor goldens) must still load."""
        d = self.make_history().to_dict()
        for key in list(d):
            if key.startswith("checkpoint_"):
                del d[key]
        restored = MetricsHistory.from_dict(d)
        assert restored.checkpoint_times == []
        assert restored.rounds == [1, 2]
