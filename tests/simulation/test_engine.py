"""Ring-engine semantics tests.

A ``LineageTrainer`` replaces SGD with ``w += e_{device}`` so the final
weight vector literally counts which devices trained each model — making
Algorithm 1's choreography (rotation, budgets, delays, Eq. 7 fallback)
directly assertable.
"""

import numpy as np
import pytest

from repro.compression import IdentityCodec
from repro.datasets.core import ClassificationDataset
from repro.device.fleet import DeviceFleet
from repro.env.network import NetworkModel
from repro.simulation.engine import RingRoundEngine, async_upload_schedule


class LineageTrainer:
    """Fake LocalTrainer: training by device d adds one to coordinate d."""

    def __init__(self, dim: int) -> None:
        self.dim = dim

    def train(self, weights, shard, epochs, stream_key=(0,), out=None, **kwargs):
        device_id = stream_key[0]
        if out is None:
            out = np.empty(self.dim)
        out[:] = weights
        out[device_id] += 1.0
        return out, epochs


def make_fleet(unit_times, dim=None):
    """A real DeviceFleet (two dummy samples per device) around the fake
    trainer, every device registered in the round arena (the engine's
    caller owns the registration)."""
    n = len(unit_times)
    trainer = LineageTrainer(dim if dim is not None else n)
    dataset = ClassificationDataset(
        np.zeros((2 * n, 1)), np.zeros(2 * n, dtype=int), 1
    )
    parts = list(np.arange(2 * n).reshape(n, 2))
    fleet = DeviceFleet(dataset, parts, np.asarray(unit_times, dtype=float), trainer)
    fleet.round_matrix(fleet.device_ids)
    return fleet


class TestRingRotation:
    def test_homogeneous_three_ring_full_rotation(self):
        """3 devices, t=1, duration=3: every final model was trained once by
        each device (the model walked the whole ring)."""
        devices = make_fleet([1.0, 1.0, 1.0])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        stats = engine.run_round([[0, 1, 2]], np.zeros(3), duration=3.0)
        assert stats.units_completed == {0: 3, 1: 3, 2: 3}
        for i in devices.device_ids:
            np.testing.assert_allclose(sorted(devices.weights_row(i)), [1.0, 1.0, 1.0])

    def test_two_units_partial_rotation(self):
        """Duration 2: each model saw its own device and its predecessor."""
        devices = make_fleet([1.0, 1.0, 1.0])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        engine.run_round([[0, 1, 2]], np.zeros(3), duration=2.0)
        # device 1's model: trained by 0 (unit 1) then by 1 (unit 2).
        np.testing.assert_allclose(devices.weights_row(1), [1.0, 1.0, 0.0])
        np.testing.assert_allclose(devices.weights_row(0), [1.0, 0.0, 1.0])

    def test_singleton_ring_trains_alone(self):
        """Eq. (7): no incoming models -> keep training the own model."""
        devices = make_fleet([0.25])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        stats = engine.run_round([[0]], np.zeros(1), duration=1.0)
        assert stats.peer_sends == 0
        np.testing.assert_allclose(devices.weights_row(0), [4.0])

    def test_newest_arrival_wins(self):
        """Two models reach slow device 1 during its first unit (at 0.5 and
        at 1.0); its second unit trains the newer one, [2, 0], not [1, 0]."""
        devices = make_fleet([0.5, 1.0])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        engine.run_round([[0, 1]], np.zeros(2), duration=2.0)
        np.testing.assert_allclose(devices.weights_row(1), [2.0, 1.0])

    def test_large_delay_isolates_devices(self):
        """Deliveries landing after the round end never get trained: every
        device keeps training its own line (Eq. 7 fallback)."""
        devices = make_fleet([1.0, 1.0])
        engine = RingRoundEngine(devices, NetworkModel(peer_latency=100.0),
                                 epochs_per_unit=1)
        engine.run_round([[0, 1]], np.zeros(2), duration=3.0)
        np.testing.assert_allclose(devices.weights_row(0), [3.0, 0.0])
        np.testing.assert_allclose(devices.weights_row(1), [0.0, 3.0])


class TestUnitBudgets:
    def test_floor_of_duration_over_time(self):
        devices = make_fleet([1.0, 0.5, 0.25])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        stats = engine.run_round([[0], [1], [2]], np.zeros(3), duration=1.0)
        assert stats.units_completed == {0: 1, 1: 2, 2: 4}

    def test_minimum_one_unit_for_straggler(self):
        """A device slower than the round still completes one unit
        (Algorithm 1 line 11 always enters the loop)."""
        devices = make_fleet([5.0])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        stats = engine.run_round([[0]], np.zeros(1), duration=1.0)
        assert stats.units_completed == {0: 1}
        assert stats.end_time == 5.0

    def test_peer_sends_equals_units_in_multi_rings(self):
        devices = make_fleet([1.0, 1.0, 0.5, 0.5])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        stats = engine.run_round([[0, 1], [2, 3]], np.zeros(4), duration=1.0)
        # ring sizes > 1: every completed unit sends once.
        assert stats.peer_sends == sum(stats.units_completed.values())


class TestEngineValidation:
    def test_duplicate_device_raises(self):
        devices = make_fleet([1.0, 1.0])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        with pytest.raises(ValueError):
            engine.run_round([[0, 1], [0]], np.zeros(2), duration=1.0)

    def test_nonpositive_duration_raises(self):
        devices = make_fleet([1.0])
        engine = RingRoundEngine(devices, epochs_per_unit=1)
        with pytest.raises(ValueError):
            engine.run_round([[0]], np.zeros(1), duration=0.0)

    def test_requires_a_fleet(self):
        with pytest.raises(TypeError, match="make_fleet"):
            RingRoundEngine(make_fleet([1.0]).device_ids.tolist())

    def test_bad_combine_raises(self):
        with pytest.raises(ValueError):
            RingRoundEngine(make_fleet([1.0]), combine="sum")

    def test_bad_epochs_raises(self):
        with pytest.raises(ValueError):
            RingRoundEngine(make_fleet([1.0]), epochs_per_unit=0)


class TestCombineModes:
    def test_average_mode_differs_from_direct(self):
        """Fig. 2 ablation: averaging the received model with the own model
        yields a different (blended) lineage."""
        for mode in ("direct", "average"):
            devices = make_fleet([1.0, 1.0])
            engine = RingRoundEngine(devices, epochs_per_unit=1, combine=mode)
            engine.run_round([[0, 1]], np.zeros(2), duration=2.0)
            if mode == "direct":
                direct = devices.weights_row(0).copy()
            else:
                averaged = devices.weights_row(0).copy()
        assert not np.allclose(direct, averaged)
        # direct: trained by 1 then 0 -> [1, 1]
        np.testing.assert_allclose(direct, [1.0, 1.0])
        # average: 0.5*(recv + own) + e_0 -> [1.5, 0.5]
        np.testing.assert_allclose(averaged, [1.5, 0.5])


class TestAsyncUploadSchedule:
    def test_counts_per_device(self):
        sched = async_upload_schedule({0: 1.0, 1: 0.5}, horizon=1.0)
        by_dev = {}
        for t, d in sched:
            by_dev.setdefault(d, []).append(t)
        assert by_dev[0] == [1.0]
        assert by_dev[1] == [0.5, 1.0]

    def test_sorted_by_time(self):
        sched = async_upload_schedule({0: 0.3, 1: 0.4, 2: 0.9}, horizon=1.0)
        times = [t for t, _ in sched]
        assert times == sorted(times)

    def test_straggler_gets_one_upload(self):
        sched = async_upload_schedule({0: 5.0}, horizon=1.0)
        assert sched == [(5.0, 0)]

    def test_sequence_input(self):
        sched = async_upload_schedule([1.0, 1.0], horizon=1.0)
        assert {d for _, d in sched} == {0, 1}

    def test_empty(self):
        assert async_upload_schedule({}, horizon=1.0) == []

    def test_bad_horizon_raises(self):
        with pytest.raises(ValueError):
            async_upload_schedule({0: 1.0}, horizon=0.0)

    def test_bad_unit_time_raises(self):
        with pytest.raises(ValueError):
            async_upload_schedule({0: 0.0}, horizon=1.0)


class TestWaveTraining:
    """Phase 1 trains a completion wave as one stack (``run_round(...,
    batched=trainer)``) or unit by unit (None): the same round either way
    — weights, stats, drop draws and codec state."""

    RINGS = [[0, 3, 5, 8], [1, 4, 6], [2, 7, 9]]

    @staticmethod
    def _engine(**kwargs):
        from repro.datasets.partition import partition_by_name
        from repro.datasets.synthetic import mnist_like
        from repro.device import LocalTrainer
        from repro.device import make_fleet as real_fleet
        from repro.device.batched import BatchedTrainer
        from repro.nn.models import paper_mlp

        dataset = mnist_like(num_samples=700, seed=5, feature_dim=16)
        parts = partition_by_name("dirichlet", dataset, 10, seed=6, beta=0.3)
        # Quantized unit times: completions coincide, so waves are wide.
        unit_times = np.array([0.5, 0.5, 1.0, 0.25, 0.5, 1.0, 0.25, 0.5, 1.0, 0.5])
        trainer = LocalTrainer(
            paper_mlp(16, 10, seed=0, hidden=(12, 8)), lr=0.1, batch_size=20, seed=2
        )
        fleet = real_fleet(dataset, parts, unit_times, trainer)
        fleet.round_matrix(fleet.device_ids)
        engine = RingRoundEngine(fleet, epochs_per_unit=1, **kwargs)
        return engine, BatchedTrainer(trainer, fleet), trainer.model.theta.copy()

    def _assert_same_round(self, start_of=None, codec=None, **kwargs):
        rounds = []
        widths = []
        for stacking in (True, False):
            engine, batched, w0 = self._engine(**kwargs)
            if stacking:
                # Patched on the instance, as benchmarks/e2e/trace.py does.
                stacked = batched.train_round
                batched.train_round = lambda ids, *a, **k: (
                    widths.append(len(ids)), stacked(ids, *a, **k))[1]
            else:
                batched = None
            start = w0 if start_of is None else start_of(w0)
            coder = IdentityCodec() if codec is None else codec()
            stats = engine.run_round(
                self.RINGS, start, duration=1.0, round_idx=2, codec=coder,
                codec_reference=w0, batched=batched,
            )
            rounds.append((engine, stats, coder))
        (auto, auto_stats, auto_codec), (off, off_stats, off_codec) = rounds
        assert min(widths) >= 2 and max(widths) >= 5  # real stacks, no stack of one
        assert auto_stats == off_stats
        assert auto.dropped_sends == off.dropped_sends
        for i in auto.fleet.device_ids:
            np.testing.assert_allclose(auto.fleet.weights_row(i), off.fleet.weights_row(i),
                                       rtol=1e-12, atol=1e-12)
        if codec is not None:
            for dev_id in range(10):
                np.testing.assert_allclose(
                    auto_codec.residual(("peer", dev_id)),
                    off_codec.residual(("peer", dev_id)),
                    rtol=1e-12, atol=1e-12,
                )
        return auto_stats, auto

    def test_shared_start(self):
        stats, _ = self._assert_same_round()
        assert stats.units_completed[3] == 4 and stats.units_completed[2] == 1

    def test_dict_start_weights(self):
        self._assert_same_round(
            start_of=lambda w0: {i: w0 + 0.01 * i for i in range(10)}
        )

    def test_average_combine(self):
        self._assert_same_round(combine="average")

    def test_nonzero_link_delay(self):
        self._assert_same_round(network=NetworkModel(peer_latency=0.1))

    def test_dropped_hops(self):
        _, engine = self._assert_same_round(
            network=NetworkModel(drop_prob=0.4), drop_seed=3
        )
        assert engine.dropped_sends > 0

    def test_topk_hops_with_drops(self):
        from repro.compression import TopKCodec

        stats, _ = self._assert_same_round(
            codec=lambda: TopKCodec(fraction=0.2),
            network=NetworkModel(drop_prob=0.3), drop_seed=1,
        )
        assert stats.peer_units < stats.peer_sends

    def test_hop_time_reads_the_encoded_size(self):
        """Every hop asks the network for its transfer time: one model
        unit when dense, the encoded size under a codec."""
        from repro.compression import TopKCodec

        units = []

        class Recording(NetworkModel):
            def transfer_time(self, src, dst, model_units=1.0):
                units.append(model_units)
                return super().transfer_time(src, dst, model_units)

        for codec in (IdentityCodec(), TopKCodec(fraction=0.2)):
            units.clear()
            engine, _, w0 = self._engine(network=Recording(peer_bandwidth=8.0))
            stats = engine.run_round(self.RINGS, w0, duration=1.0, codec=codec,
                                     codec_reference=w0)
            assert len(units) == stats.peer_sends > 0
            assert sum(units) == pytest.approx(stats.peer_units)
            if codec.is_identity:
                assert set(units) == {1.0}
            else:
                assert max(units) < 1.0
