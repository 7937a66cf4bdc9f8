"""Codec behaviour at the channel layer and through whole runs.

The contract under test: the identity codec is a zero-overhead fast path
(same objects, same meter values as the pre-codec channel); a real codec
shrinks the metered units and the clock's transfer charges by exactly
its wire size while the meter's raw channel keeps the uncompressed
count; and every method family (sync round, async event loop, ring
engine) routes its traffic through the active codec.
"""

import numpy as np
import pytest

from repro.baselines.fedavg import FedAvgConfig, FedAvgServer
from repro.compression import IdentityCodec, TopKCodec, make_codec
from repro.env import Environment, NetworkModel
from repro.experiments import ExperimentSpec, run_experiment


def make_server(tiny_devices, tiny_split, env=None, codec=None, **cfg):
    _, test_set = tiny_split
    config = FedAvgConfig(**{"rounds": 2, "local_epochs": 1, **cfg})
    srv = FedAvgServer(tiny_devices, test_set, config, env=env)
    if codec is not None:
        srv.codec = codec
    return srv


class TestIdentityFastPath:
    def test_broadcast_returns_same_objects(self, tiny_devices, tiny_split):
        srv = make_server(tiny_devices, tiny_split)
        weights = srv.global_weights
        ids = tiny_devices.device_ids
        delivered, view = srv.broadcast_model(ids, weights)
        assert view is weights
        assert delivered is ids
        assert srv.meter.server_down == len(tiny_devices)
        assert srv.meter.raw_down == len(tiny_devices)
        assert srv.meter.compression_ratio == 1.0

    def test_collect_returns_same_stack(self, tiny_devices, tiny_split):
        srv = make_server(tiny_devices, tiny_split)
        stack = np.zeros((len(tiny_devices), srv.trainer.dim))
        arrived, decoded = srv.collect_models(tiny_devices.device_ids, stack)
        assert decoded is stack
        np.testing.assert_array_equal(arrived, np.arange(len(tiny_devices)))

    def test_extra_units_preserved(self, tiny_devices, tiny_split):
        """SCAFFOLD's 2.0-unit metering identity survives the codec API."""
        srv = make_server(tiny_devices, tiny_split)
        srv.broadcast_model(tiny_devices.device_ids, srv.global_weights, extra_units=1.0)
        assert srv.meter.server_down == 2.0 * len(tiny_devices)


class TestCodecChannel:
    def test_topk_shrinks_metered_units(self, tiny_devices, tiny_split):
        srv = make_server(
            tiny_devices, tiny_split, codec=TopKCodec(fraction=0.1)
        )
        w = srv.global_weights
        # First broadcast has no downlink reference: dense (1.0 units).
        srv.broadcast_model(tiny_devices.device_ids, w)
        assert srv.meter.server_down == pytest.approx(len(tiny_devices))
        # Second broadcast compresses against the decoded first view.
        srv.broadcast_model(tiny_devices.device_ids, w + 0.01)
        second = srv.meter.server_down - len(tiny_devices)
        per_receiver = second / len(tiny_devices)
        assert 0.09 < per_receiver < 0.2
        # Raw channel still counts dense models.
        assert srv.meter.raw_down == 2.0 * len(tiny_devices)
        assert srv.meter.compression_ratio > 1.5

    def test_collect_decodes_lossy_stack(self, tiny_devices, tiny_split):
        srv = make_server(
            tiny_devices, tiny_split,
            codec=TopKCodec(fraction=0.1, error_feedback=False),
        )
        ref = srv.global_weights
        rng = np.random.default_rng(0)
        stack = ref + 0.1 * rng.normal(size=(len(tiny_devices), ref.size))
        arrived, decoded = srv.collect_models(tiny_devices.device_ids, stack, reference=ref)
        assert decoded is not stack
        # Lossy: the decode differs from the upload but moves toward it.
        assert not np.allclose(decoded, stack)
        assert np.linalg.norm(decoded - ref) > 0.0

    def test_transfer_time_scales_with_wire_size(self, tiny_devices, tiny_split):
        env = Environment(NetworkModel(latency=0.0, bandwidth=1.0))

        def clock_after_two_broadcasts(codec):
            srv = make_server(tiny_devices, tiny_split, env=env, codec=codec)
            w = srv.global_weights
            srv.broadcast_model(tiny_devices.device_ids, w)
            srv.broadcast_model(tiny_devices.device_ids, w + 0.01)
            return srv.clock.now

        dense = clock_after_two_broadcasts(None)
        topk = clock_after_two_broadcasts(TopKCodec(fraction=0.1))
        assert dense == pytest.approx(2.0)  # two dense transfers at bw 1
        assert 1.0 < topk < 1.3  # dense first + ~0.1-unit second

    def test_wire_bytes_accounting_exact(self, tiny_devices, tiny_split):
        codec = TopKCodec(fraction=0.1)
        srv = make_server(tiny_devices, tiny_split, codec=codec)
        w = srv.global_weights
        srv.broadcast_model(tiny_devices.device_ids, w)
        srv.broadcast_model(tiny_devices.device_ids, w + 0.01)
        dim = srv.trainer.dim
        k = max(1, round(0.1 * dim))
        expected = len(tiny_devices) * (8 * dim + 4 + 8 * k)
        assert srv.meter.wire_bytes == pytest.approx(expected)
        assert srv.meter.raw_bytes == pytest.approx(
            2 * len(tiny_devices) * 8 * dim
        )

    def test_downlink_reference_chains(self, tiny_devices, tiny_split):
        srv = make_server(tiny_devices, tiny_split, codec=TopKCodec(fraction=0.1))
        w = srv.global_weights
        _, view1 = srv.broadcast_model(tiny_devices.device_ids, w)
        assert srv._codec_down_ref is view1
        _, view2 = srv.broadcast_model(tiny_devices.device_ids, w + 0.5)
        assert srv._codec_down_ref is view2

    def test_per_device_reference_dict(self, tiny_devices, tiny_split):
        """collect_models resolves a start_views dict per sender id."""
        srv = make_server(tiny_devices, tiny_split, codec=make_codec("delta"))
        ids = tiny_devices.device_ids.tolist()
        ref = {i: srv.global_weights + i for i in ids}
        stack = np.stack([ref[i] + (0.25 if i == 0 else 0.0) for i in ids])
        arrived, decoded = srv.collect_models(tiny_devices.device_ids, stack, reference=ref)
        assert np.array_equal(decoded, stack)  # delta codec is lossless

    def test_lossy_links_drop_the_same_ids(self, tiny_devices, tiny_split):
        """The codec legs draw drops from the same persistent stream as the
        dense ones; the survivors are pinned to what the object-list
        channel delivered for this seed."""
        srv = make_server(
            tiny_devices, tiny_split,
            env=Environment(NetworkModel(drop_prob=0.4)),
            codec=TopKCodec(fraction=0.5),
        )
        ids = tiny_devices.device_ids
        w = srv.global_weights
        delivered, _ = srv.broadcast_model(ids, w)
        assert delivered.dtype == np.intp
        assert delivered.tolist() == [1, 2, 4, 5, 6]
        arrived, _ = srv.collect_models(ids, np.tile(w, (len(ids), 1)))
        assert arrived.tolist() == [0, 3, 5, 6, 7]
        assert srv.meter.raw_down == len(ids)  # dropped sends still metered

    def test_empty_codec_calls_are_noops(self, tiny_devices, tiny_split):
        srv = make_server(tiny_devices, tiny_split, codec=TopKCodec(fraction=0.1))
        none = np.empty(0, dtype=np.intp)
        delivered, view = srv.broadcast_model(none, srv.global_weights)
        assert len(delivered) == 0 and view is srv.global_weights
        stack = np.empty((0, srv.trainer.dim))
        arrived, decoded = srv.collect_models(none, stack)
        assert len(arrived) == 0 and decoded is stack
        assert srv.meter.server_total == 0
        assert srv.clock.now == 0.0


class TestRunLevel:
    SPEC = dict(
        method="fedavg", dataset="mnist_like", num_samples=300,
        num_devices=6, rounds=3, eval_every=1, seed=0,
    )

    def test_codec_none_bit_identical(self):
        base = run_experiment(ExperimentSpec(**self.SPEC))
        none = run_experiment(ExperimentSpec(**self.SPEC, codec="none"))
        np.testing.assert_array_equal(base.final_weights, none.final_weights)
        assert base.history.to_dict() == none.history.to_dict()
        assert base.transport == none.transport

    def test_topk_reduces_wire_bytes_without_breaking_training(self):
        dense = run_experiment(ExperimentSpec(**self.SPEC))
        topk = run_experiment(ExperimentSpec(
            **self.SPEC, codec="topk", codec_kwargs={"fraction": 0.1}
        ))
        assert topk.transport["wire_bytes"] < 0.5 * dense.transport["wire_bytes"]
        assert topk.transport["compression_ratio"] > 2.0
        # Lossy but functional: still learns something on this easy set.
        assert topk.final_accuracy > 0.25

    def test_delta_codec_matches_dense_accuracy(self):
        """A lossless codec must not change training at all, only bytes."""
        dense = run_experiment(ExperimentSpec(**self.SPEC))
        delta = run_experiment(ExperimentSpec(**self.SPEC, codec="delta"))
        np.testing.assert_array_equal(
            dense.final_weights, delta.final_weights
        )
        assert delta.transport["wire_bytes"] <= dense.transport["wire_bytes"]

    def test_codec_seed_reproducible(self):
        spec = ExperimentSpec(
            **self.SPEC, codec="qsgd", codec_kwargs={"bits": 4}
        )
        a = run_experiment(spec)
        b = run_experiment(spec)
        np.testing.assert_array_equal(a.final_weights, b.final_weights)

    @pytest.mark.parametrize("method", [
        "fedhisyn", "fedavg", "tfedavg", "tafedavg", "fedat", "fedprox",
        "scaffold", "fedasync", "fedbuff",
    ])
    def test_every_method_compresses(self, method):
        """All nine methods route their traffic through the codec."""
        kwargs = {"num_classes": 3} if method == "fedhisyn" else {}
        spec = ExperimentSpec(
            method=method, dataset="mnist_like", num_samples=300,
            num_devices=6, rounds=3, seed=0,
            codec="topk", codec_kwargs={"fraction": 0.1},
            method_kwargs=kwargs,
        )
        result = run_experiment(spec)
        ratio = result.transport["compression_ratio"]
        assert ratio > 1.3, f"{method}: compression_ratio {ratio}"
        assert result.transport["wire_bytes"] < result.transport["raw_bytes"]


class TestRingCodec:
    def test_peer_units_shrink(self, tiny_devices, tiny_split):
        from repro.simulation.engine import RingRoundEngine

        tiny_devices.round_matrix(tiny_devices.device_ids)
        engine = RingRoundEngine(tiny_devices, epochs_per_unit=1)
        rings = [tiny_devices.device_ids.tolist()]
        w = np.zeros(tiny_devices.dim)

        dense = engine.run_round(rings, w, duration=4.0, round_idx=0)
        assert dense.peer_units == float(dense.peer_sends)

        engine2 = RingRoundEngine(tiny_devices, epochs_per_unit=1)
        codec = TopKCodec(fraction=0.1)
        topk = engine2.run_round(
            rings, w, duration=4.0, round_idx=0,
            codec=codec, codec_reference=w,
        )
        assert topk.peer_sends == dense.peer_sends
        assert topk.peer_units < 0.3 * topk.peer_sends

    def test_identity_codec_is_dense_path(self, tiny_devices, tiny_split):
        from repro.simulation.engine import RingRoundEngine

        tiny_devices.round_matrix(tiny_devices.device_ids)
        rings = [tiny_devices.device_ids.tolist()]
        w = np.zeros(tiny_devices.dim)
        a = RingRoundEngine(tiny_devices, epochs_per_unit=1).run_round(
            rings, w, duration=4.0, round_idx=0
        )
        b = RingRoundEngine(tiny_devices, epochs_per_unit=1).run_round(
            rings, w, duration=4.0, round_idx=0,
            codec=IdentityCodec(), codec_reference=w,
        )
        assert a.peer_sends == b.peer_sends
        assert a.peer_units == b.peer_units


class TestPerLinkReplies:
    """TAFedAvg's one-device replies ride their own link stream.

    On the cohort's shared ``"server-down"`` stream the error-feedback
    residual of every reply was folded into the next device's, which
    never received it: top-k TAFedAvg went non-finite (accuracy 0.1).
    On per-link streams each top-k cell stays finite and lands within
    0.05 of its qsgd twin.
    """

    @staticmethod
    def run(codec, drop_prob):
        return run_experiment(ExperimentSpec(
            method="tafedavg", num_devices=16, rounds=6, seed=0, codec=codec,
            env_kwargs={"drop_prob": drop_prob} if drop_prob else {},
        ))

    @pytest.mark.parametrize("drop_prob", [0.0, 0.3])
    def test_topk_learns_like_qsgd(self, drop_prob):
        topk = self.run("topk", drop_prob)
        qsgd = self.run("qsgd", drop_prob)
        assert np.isfinite(topk.final_weights).all()
        assert np.isfinite(qsgd.final_weights).all()
        assert abs(topk.final_accuracy - qsgd.final_accuracy) <= 0.05
