"""Tests for repro.device.device: LocalTrainer, and make_fleet over it."""

import numpy as np
import pytest

from repro.datasets.core import ClassificationDataset
from repro.device import LocalTrainer, make_fleet
from repro.nn.models import paper_mlp
from repro.nn.serialization import get_flat_params


@pytest.fixture()
def shard():
    rng = np.random.default_rng(0)
    return ClassificationDataset(rng.normal(size=(40, 6)), rng.integers(0, 3, 40), 3)


@pytest.fixture()
def trainer():
    model = paper_mlp(6, 3, seed=0, hidden=(8, 4))
    return LocalTrainer(model, lr=0.1, batch_size=16, seed=1)


@pytest.fixture()
def fleet(trainer, shard):
    """A single-shard fleet: its one device is id 0."""
    return make_fleet(shard, [np.arange(len(shard))], np.array([1.0]), trainer)


class TestLocalTrainer:
    def test_train_changes_weights(self, trainer, shard):
        w0 = get_flat_params(trainer.model)
        w1, steps = trainer.train(w0, shard, epochs=2)
        assert steps == 2 * 3  # ceil(40/16)=3 batches per epoch
        assert not np.allclose(w0, w1)

    def test_train_is_pure_wrt_input(self, trainer, shard):
        w0 = get_flat_params(trainer.model).copy()
        before = w0.copy()
        trainer.train(w0, shard, epochs=1)
        np.testing.assert_array_equal(w0, before)

    def test_same_stream_key_reproducible(self, trainer, shard):
        w0 = get_flat_params(trainer.model)
        a, _ = trainer.train(w0, shard, 1, stream_key=(3, 1, 0))
        b, _ = trainer.train(w0, shard, 1, stream_key=(3, 1, 0))
        np.testing.assert_array_equal(a, b)

    def test_different_stream_keys_differ(self, trainer, shard):
        w0 = get_flat_params(trainer.model)
        a, _ = trainer.train(w0, shard, 1, stream_key=(3, 1, 0))
        b, _ = trainer.train(w0, shard, 1, stream_key=(3, 1, 1))
        assert not np.array_equal(a, b)

    def test_reduces_local_loss(self, trainer, shard):
        w0 = get_flat_params(trainer.model)
        from repro.nn.serialization import set_flat_params

        set_flat_params(trainer.model, w0)
        before = trainer.model.evaluate_loss(shard.x, shard.y)
        w1, _ = trainer.train(w0, shard, epochs=10)
        set_flat_params(trainer.model, w1)
        after = trainer.model.evaluate_loss(shard.x, shard.y)
        assert after < before

    def test_proximal_limits_drift(self, trainer, shard):
        w0 = get_flat_params(trainer.model)
        free, _ = trainer.train(w0, shard, epochs=5, stream_key=(0,))
        prox, _ = trainer.train(w0, shard, epochs=5, stream_key=(0,),
                                anchor=w0, mu=10.0)
        assert np.linalg.norm(prox - w0) < np.linalg.norm(free - w0)

    def test_correction_steers_update(self, trainer, shard):
        w0 = get_flat_params(trainer.model)
        plain, _ = trainer.train(w0, shard, 1, stream_key=(0,))
        corr = np.ones(trainer.dim)
        pushed, _ = trainer.train(w0, shard, 1, stream_key=(0,), correction=corr)
        # correction adds -eta*sum(corr) to every step
        assert not np.allclose(plain, pushed)
        assert (pushed < plain).mean() > 0.9  # pushed down almost everywhere

    def test_gradient_shape_and_direction(self, trainer, shard):
        # The full-batch gradient the trainer steps along is a descent
        # direction: a small step along -g lowers the shard loss.
        model = trainer.model
        w0 = get_flat_params(model)
        model.set_flat(w0)
        model.loss_and_grad(shard.x, shard.y)
        g = model.grad.copy()
        assert g.shape == (trainer.dim,)
        before = model.evaluate_loss(shard.x, shard.y)
        model.set_flat(w0 - 0.01 * g)
        after = model.evaluate_loss(shard.x, shard.y)
        assert after < before

    @pytest.mark.parametrize(
        "batch_size, epochs, steps",
        [(16, 1, 3), (16, 2, 6), (40, 1, 1), (7, 3, 18), (64, 2, 2)],
    )
    def test_step_count(self, trainer, shard, batch_size, epochs, steps):
        t = LocalTrainer(trainer.model, lr=0.1, batch_size=batch_size, seed=1)
        _, got = t.train(get_flat_params(t.model), shard, epochs)
        assert got == steps

    def test_out_buffer_filled_in_place(self, trainer, shard):
        w0 = get_flat_params(trainer.model)
        want, _ = trainer.train(w0, shard, 1, stream_key=(3,))
        out = np.full(trainer.dim, np.nan)
        got, _ = trainer.train(w0, shard, 1, stream_key=(3,), out=out)
        assert got is out
        np.testing.assert_array_equal(out, want)

    def test_empty_shard_raises(self, trainer):
        empty = ClassificationDataset(np.empty((0, 6)), np.empty(0, dtype=int), 3)
        with pytest.raises(ValueError, match="empty"):
            trainer.train(get_flat_params(trainer.model), empty, 1)

    def test_zero_mu_ignores_anchor(self, trainer, shard):
        w0 = get_flat_params(trainer.model)
        plain, _ = trainer.train(w0, shard, 2, stream_key=(5,))
        anchored, _ = trainer.train(w0, shard, 2, stream_key=(5,), anchor=w0 + 1.0, mu=0.0)
        np.testing.assert_array_equal(anchored, plain)

    def test_zero_correction_is_plain(self, trainer, shard):
        w0 = get_flat_params(trainer.model)
        plain, _ = trainer.train(w0, shard, 2, stream_key=(5,))
        corrected, _ = trainer.train(
            w0, shard, 2, stream_key=(5,), correction=np.zeros(trainer.dim)
        )
        np.testing.assert_array_equal(corrected, plain)

    @pytest.mark.parametrize("lr", [0.01, 0.1, 0.5])
    def test_single_step_is_lr_times_gradient(self, trainer, shard, lr):
        # One full-shard batch: the update is exactly -lr * (batch gradient).
        t = LocalTrainer(trainer.model, lr=lr, batch_size=len(shard), seed=1)
        w0 = get_flat_params(t.model)
        w1, steps = t.train(w0, shard, 1)
        assert steps == 1
        t.model.set_flat(w0)
        t.model.loss_and_grad(shard.x, shard.y)
        np.testing.assert_allclose(w1, w0 - lr * t.model.grad, rtol=1e-10, atol=1e-12)

    def test_epoch_buffers_follow_shard_size(self, trainer, shard):
        # Reused gather buffers grow for a larger shard and are sliced for a
        # smaller one; results match a fresh trainer's either way.
        rng = np.random.default_rng(4)
        big = ClassificationDataset(rng.normal(size=(70, 6)), rng.integers(0, 3, 70), 3)
        small = shard.subset(np.arange(11))
        w0 = get_flat_params(trainer.model)
        for data in (shard, big, small):
            got, _ = trainer.train(w0, data, 2, stream_key=(2,))
            fresh = LocalTrainer(trainer.model, lr=0.1, batch_size=16, seed=1)
            want, _ = fresh.train(w0, data, 2, stream_key=(2,))
            np.testing.assert_array_equal(got, want)

    def test_zero_epochs_raises(self, trainer, shard):
        with pytest.raises(ValueError):
            trainer.train(get_flat_params(trainer.model), shard, 0)

    def test_lr_override(self, trainer, shard):
        slow = LocalTrainer(trainer.model, lr=1e-6, batch_size=16, seed=1)
        w0 = get_flat_params(trainer.model)
        moved, _ = slow.train(w0, shard, 1, stream_key=(0,))
        np.testing.assert_allclose(moved, w0, atol=1e-3)

    @pytest.mark.parametrize("bad", [{"lr": 0}, {"batch_size": 0}])
    def test_bad_ctor_raises(self, bad):
        model = paper_mlp(6, 3, seed=0, hidden=(4, 3))
        with pytest.raises(ValueError):
            LocalTrainer(model, **bad)


class TestDevice:
    """A device is an id into the fleet's arrays."""

    def test_weights_read_the_fleet_row(self, trainer, fleet):
        assert fleet.weights_row(0) is None  # idle until its round is registered
        matrix = fleet.round_matrix([0])
        w = np.arange(trainer.dim, dtype=np.float64)
        fleet.set_weights(0, w)
        np.testing.assert_array_equal(fleet.weights_row(0), w)
        assert np.shares_memory(fleet.weights_row(0), matrix)

    def test_shard_and_profile(self, shard, fleet):
        assert fleet.shard(0) is fleet.shard(0)
        assert len(fleet.shard(0)) == fleet.num_samples[0] == len(shard)
        assert fleet.unit_times[0] == 1.0


class TestMakeFleet:
    def test_builds_fleet(self, trainer):
        rng = np.random.default_rng(0)
        ds = ClassificationDataset(rng.normal(size=(30, 6)), rng.integers(0, 3, 30), 3)
        parts = [np.arange(0, 10), np.arange(10, 20), np.arange(20, 30)]
        fleet = make_fleet(ds, parts, np.array([1.0, 0.5, 0.25]), trainer)
        assert fleet.device_ids.tolist() == [0, 1, 2]
        assert fleet.num_samples.tolist() == [10, 10, 10]
        assert fleet.unit_times[2] == 0.25

    def test_length_mismatch_raises(self, trainer):
        ds = ClassificationDataset(np.zeros((4, 6)), np.zeros(4, dtype=int), 2)
        with pytest.raises(ValueError):
            make_fleet(ds, [np.arange(4)], np.array([1.0, 2.0]), trainer)
