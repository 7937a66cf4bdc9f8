"""Flat-buffer invariants and seed-path equivalence.

The flat-buffer engine rests on two promises:

1. every ``Parameter.data``/``Parameter.grad`` is a live view into the
   model's contiguous ``theta``/``grad`` vectors, and nothing in the
   training stack ever reallocates those vectors mid-run;
2. the fused whole-vector training math (SGD step, proximal pull,
   SCAFFOLD correction, overwriting backward, fused loss)
   produces bit-identical results to the seed revision's per-parameter
   path.

The seed path is re-implemented inline here (two-pass loss, per-parameter
loops) so the equivalence tests are self-contained.
"""

import numpy as np
import pytest

from repro.datasets.synthetic import cifar10_like, mnist_like
from repro.device.device import LocalTrainer
from repro.nn.layers import Dense, ReLU
from repro.nn.models import Sequential, logistic_model, paper_cnn, paper_mlp
from repro.nn.serialization import get_flat_params, num_params, set_flat_params
from repro.utils.rng import SeedSequenceFactory


# --------------------------------------------------------------------------
# Inline seed-path reference (per-parameter loops, two-pass loss).


def seed_loss_and_grad(model, x, y):
    logits = model.forward(x, train=True)
    value = model.loss.value(logits, y)
    model.backward(model.loss.grad(logits, y))
    return value


def seed_train(
    model,
    weights,
    shard,
    epochs,
    lr=0.1,
    batch_size=50,
    seed=0,
    stream_key=(0,),
    momentum=0.0,
    anchor=None,
    mu=0.0,
    correction=None,
):
    """The seed revision's ``LocalTrainer.train`` loop, verbatim."""
    set_flat_params(model, weights)
    params = model.parameters()
    slices = []
    offset = 0
    for p in params:
        slices.append((offset, offset + p.size, p.shape))
        offset += p.size
    rng = SeedSequenceFactory(seed).generator(*stream_key)
    velocity = [np.zeros_like(p.data) for p in params] if momentum > 0 else None
    n = len(shard)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            for p in params:
                p.zero_grad()
            seed_loss_and_grad(model, shard.x[idx], shard.y[idx])
            if correction is not None:
                for (lo, hi, shape), p in zip(slices, params):
                    p.grad += correction[lo:hi].reshape(shape)
            if anchor is not None and mu > 0.0:
                for (lo, hi, shape), p in zip(slices, params):
                    p.grad += mu * (p.data - anchor[lo:hi].reshape(shape))
            if velocity is None:
                for p in params:
                    p.data -= lr * p.grad
            else:
                for v, p in zip(velocity, params):
                    v *= momentum
                    v += p.grad
                    p.data -= lr * v
    return get_flat_params(model)


# --------------------------------------------------------------------------


@pytest.fixture
def mlp():
    return paper_mlp(12, 4, seed=3, hidden=(8, 6))


class TestViewAliasing:
    def test_params_alias_theta_and_grad(self, mlp):
        for p in mlp.parameters():
            assert np.shares_memory(p.data, mlp.theta)
            assert np.shares_memory(p.grad, mlp.grad)

    def test_flat_layout_matches_parameter_order(self, mlp):
        manual = np.concatenate([p.data.ravel() for p in mlp.parameters()])
        np.testing.assert_array_equal(mlp.theta, manual)
        np.testing.assert_array_equal(get_flat_params(mlp), manual)

    def test_views_survive_set_flat_params(self, mlp):
        theta = mlp.theta
        v = np.random.default_rng(0).normal(size=num_params(mlp))
        set_flat_params(mlp, v)
        assert mlp.theta is theta  # same buffer, no reallocation
        np.testing.assert_array_equal(mlp.theta, v)
        for p in mlp.parameters():
            assert np.shares_memory(p.data, theta)

    def test_get_flat_params_returns_copy(self, mlp):
        out = get_flat_params(mlp)
        assert not np.shares_memory(out, mlp.theta)

    def test_optimizer_step_never_reallocates(self, mlp):
        # The SGD step is an in-place whole-vector update of ``theta``.
        theta = mlp.theta
        rng = np.random.default_rng(1)
        for _ in range(3):
            mlp.loss_and_grad(rng.normal(size=(5, 12)), rng.integers(0, 4, size=5))
            theta -= 0.1 * mlp.grad
        assert mlp.theta is theta
        for p in mlp.parameters():
            assert np.shares_memory(p.data, theta)

    def test_layer_replacement_detected(self, mlp):
        """Replacing a layer in place is rejected: the stack is a tuple, so
        buffers and backward fast-path tables can never go stale."""
        theta, relu_layer = mlp.theta, list(mlp._relu_layer)
        with pytest.raises(TypeError):
            mlp.layers[1] = Dense(8, 8, rng=np.random.default_rng(0))
        assert mlp.theta is theta and mlp._relu_layer == relu_layer
        for p in mlp.parameters():
            assert np.shares_memory(p.data, mlp.theta)

    def test_trainer_never_reallocates(self, mlp):
        shard = mnist_like(num_samples=40, seed=0, feature_dim=12)
        shard = type(shard)(shard.x, shard.y % 4, 4, name="t")
        trainer = LocalTrainer(mlp, lr=0.1, batch_size=16, seed=0)
        theta = mlp.theta
        trainer.train(get_flat_params(mlp), shard, 2)
        assert mlp.theta is theta

    def test_backward_overwrite_guarded_on_custom_layers(self):
        class MyDense(Dense):
            pass

        r = np.random.default_rng(0)
        m = Sequential([MyDense(5, 3, rng=r)])
        logits = m.forward(r.normal(size=(2, 5)), train=True)
        with pytest.raises(ValueError):
            m.backward(np.ones_like(logits), overwrite=True)

    @pytest.mark.parametrize("clone", ["pickle", "deepcopy"])
    def test_clone_rebuilds_flat_buffers(self, mlp, clone):
        """pickle/deepcopy rehydrate views as standalone arrays; the clone
        must rebuild its buffers so flat writes still reach forward()."""
        import copy
        import pickle

        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 12))
        if clone == "pickle":
            m2 = pickle.loads(pickle.dumps(mlp))
        else:
            m2 = copy.deepcopy(mlp)
        np.testing.assert_array_equal(m2.theta, mlp.theta)
        for p in m2.parameters():
            assert np.shares_memory(p.data, m2.theta)
            assert not np.shares_memory(p.data, mlp.theta)
        set_flat_params(m2, np.zeros(num_params(m2)))
        np.testing.assert_allclose(m2.forward(x, train=False), 0.0)
        assert not np.allclose(mlp.forward(x, train=False), 0.0)  # original intact

    def test_parameter_copy_detaches(self, mlp):
        p = mlp.parameters()[0]
        c = p.copy()
        assert not np.shares_memory(c.data, mlp.theta)
        before = p.data.copy()
        c.data += 1.0
        np.testing.assert_array_equal(p.data, before)  # original untouched


class TestBitwiseEquivalence:
    """Fused training == seed per-parameter training, bit for bit."""

    CASES = {
        "plain": {},
        "fedprox": {"mu": 0.05, "use_anchor": True},
        "scaffold": {"use_correction": True},
        "all_terms": {"mu": 0.01, "use_anchor": True, "use_correction": True},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_mlp_unit_matches_seed(self, case):
        opts = dict(self.CASES[case])
        mu = opts.pop("mu", 0.0)
        use_anchor = opts.pop("use_anchor", False)
        use_correction = opts.pop("use_correction", False)

        shard = mnist_like(num_samples=90, seed=5, feature_dim=10)
        model_a = paper_mlp(10, 10, seed=11, hidden=(7, 5))
        model_b = paper_mlp(10, 10, seed=11, hidden=(7, 5))
        w0 = get_flat_params(model_a)
        rng = np.random.default_rng(6)
        anchor = w0 if use_anchor else None
        correction = (
            rng.normal(scale=1e-3, size=w0.size) if use_correction else None
        )

        trainer = LocalTrainer(model_a, lr=0.1, batch_size=32, seed=9)
        fused, _ = trainer.train(
            w0, shard, 3, stream_key=(1, 2), anchor=anchor, mu=mu,
            correction=correction,
        )
        reference = seed_train(
            model_b, w0, shard, 3, lr=0.1, batch_size=32, seed=9,
            stream_key=(1, 2), anchor=anchor, mu=mu,
            correction=correction,
        )
        np.testing.assert_array_equal(fused, reference)

    @pytest.mark.parametrize("batch_size", [1, 7, 90, 200])
    def test_mlp_unit_matches_seed_at_batch_size(self, batch_size):
        # Single-sample batches, a ragged tail, one full batch, and a batch
        # larger than the shard all follow the seed loop exactly.
        shard = mnist_like(num_samples=90, seed=5, feature_dim=10)
        model_a = paper_mlp(10, 10, seed=11, hidden=(7, 5))
        model_b = paper_mlp(10, 10, seed=11, hidden=(7, 5))
        w0 = get_flat_params(model_a)
        trainer = LocalTrainer(model_a, lr=0.05, batch_size=batch_size, seed=3)
        fused, steps = trainer.train(w0, shard, 2, stream_key=(4,))
        reference = seed_train(
            model_b, w0, shard, 2, lr=0.05, batch_size=batch_size, seed=3,
            stream_key=(4,),
        )
        np.testing.assert_array_equal(fused, reference)
        assert steps == 2 * -(-90 // batch_size)

    def test_logistic_unit_matches_seed(self):
        shard = mnist_like(num_samples=50, seed=2, feature_dim=6)
        model_a = logistic_model(6, 10, seed=1)
        model_b = logistic_model(6, 10, seed=1)
        w0 = get_flat_params(model_a)
        trainer = LocalTrainer(model_a, lr=0.2, batch_size=16, seed=5)
        fused, _ = trainer.train(w0, shard, 3, stream_key=(0, 1), mu=0.1, anchor=w0)
        reference = seed_train(
            model_b, w0, shard, 3, lr=0.2, batch_size=16, seed=5,
            stream_key=(0, 1), mu=0.1, anchor=w0,
        )
        np.testing.assert_array_equal(fused, reference)

    def test_cnn_unit_matches_seed(self):
        shard = cifar10_like(num_samples=24, seed=1, image_size=8)
        model_a = paper_cnn(3, 8, 10, seed=2, conv_channels=3, fc_sizes=(6, 5))
        model_b = paper_cnn(3, 8, 10, seed=2, conv_channels=3, fc_sizes=(6, 5))
        w0 = get_flat_params(model_a)
        trainer = LocalTrainer(model_a, lr=0.05, batch_size=8, seed=4)
        fused, _ = trainer.train(w0, shard, 2, stream_key=(3,))
        reference = seed_train(
            model_b, w0, shard, 2, lr=0.05, batch_size=8, seed=4, stream_key=(3,)
        )
        np.testing.assert_array_equal(fused, reference)

    def test_fused_loss_matches_two_pass(self):
        rng = np.random.default_rng(0)
        m = paper_mlp(6, 5, seed=0, hidden=(4, 4))
        x, y = rng.normal(size=(13, 6)) * 5, rng.integers(0, 5, size=13)
        logits = m.forward(x, train=False)
        v, g = m.loss.value_and_grad(logits, y)
        assert v == m.loss.value(logits, y)
        np.testing.assert_array_equal(g, m.loss.grad(logits, y))


class TestOverwriteBackward:
    def test_loss_and_grad_yields_exact_batch_gradient(self, mlp):
        """Back-to-back calls do not accumulate stale gradients."""
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(6, 12)), rng.integers(0, 4, size=6)
        mlp.loss_and_grad(x, y)
        first = mlp.grad.copy()
        mlp.loss_and_grad(x, y)  # no zero_grad in between
        np.testing.assert_array_equal(mlp.grad, first)

    def test_subclassed_layer_falls_back_to_seed_semantics(self):
        """A Dense subclass opts out of the overwrite/skip fast paths but
        training results stay identical."""

        class MyDense(Dense):
            pass

        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(5, 6)), rng.integers(0, 3, size=5)

        def build(cls):
            r = np.random.default_rng(42)
            return Sequential([cls(6, 4, rng=r), ReLU(), cls(4, 3, rng=r)])

        custom, standard = build(MyDense), build(Dense)
        assert not custom._overwrite_ok and standard._overwrite_ok
        v1 = custom.loss_and_grad(x, y)
        v2 = standard.loss_and_grad(x, y)
        assert v1 == v2
        np.testing.assert_array_equal(custom.grad, standard.grad)


class TestEvaluateMetrics:
    def test_matches_separate_passes(self):
        m = paper_mlp(9, 6, seed=1, hidden=(8, 7))
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(53, 9)), rng.integers(0, 6, size=53)
        acc, loss = m.evaluate_metrics(x, y, batch_size=16)  # ragged last batch
        assert acc == m.accuracy(x, y, batch_size=16)
        np.testing.assert_allclose(loss, m.evaluate_loss(x, y, batch_size=16))

    def test_empty_raises(self):
        m = paper_mlp(9, 6, seed=1, hidden=(8, 7))
        with pytest.raises(ValueError):
            m.evaluate_metrics(np.empty((0, 9)), np.empty(0, dtype=int))
