"""Tests for repro.nn.models."""

import numpy as np
import pytest

from repro.nn.layers import Dense, Flatten, ReLU
from repro.nn.models import Sequential, logistic_model, paper_cnn, paper_mlp
from repro.nn.serialization import num_params

#: (builder, input feature shape) for each architecture a run can build.
BUILDERS = {
    "mlp": (lambda: paper_mlp(4, 3, seed=0, hidden=(3, 3)), (4,)),
    "cnn": (
        lambda: paper_cnn(2, 4, 3, seed=0, conv_channels=2, fc_sizes=(5, 4)),
        (2, 4, 4),
    ),
    "logistic": (lambda: logistic_model(4, 3, seed=0), (4,)),
}


class TestSequential:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_parameters_collected_in_order(self):
        m = paper_mlp(4, 2, seed=0, hidden=(3, 3))
        names = [p.name for p in m.parameters()]
        assert names == [
            "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias",
            "head.weight", "head.bias",
        ]

    def test_predict_shape_and_range(self):
        m = paper_mlp(4, 5, seed=0, hidden=(3, 3))
        preds = m.predict(np.random.default_rng(0).normal(size=(17, 4)), batch_size=5)
        assert preds.shape == (17,)
        assert preds.min() >= 0 and preds.max() < 5

    def test_predict_empty(self):
        m = paper_mlp(4, 5, seed=0, hidden=(3, 3))
        assert m.predict(np.empty((0, 4))).shape == (0,)

    def test_accuracy_empty_raises(self):
        m = paper_mlp(4, 5, seed=0, hidden=(3, 3))
        with pytest.raises(ValueError):
            m.accuracy(np.empty((0, 4)), np.empty(0, dtype=int))

    def test_accuracy_perfect_on_own_predictions(self):
        m = paper_mlp(4, 3, seed=0, hidden=(3, 3))
        x = np.random.default_rng(1).normal(size=(10, 4))
        y = m.predict(x)
        assert m.accuracy(x, y) == 1.0

    def test_evaluate_loss_matches_loss_value(self):
        m = paper_mlp(4, 3, seed=0, hidden=(3, 3))
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(20, 4)), rng.integers(0, 3, size=20)
        full = m.loss.value(m.forward(x, train=False), y)
        batched = m.evaluate_loss(x, y, batch_size=7)
        np.testing.assert_allclose(batched, full, rtol=1e-10)

    def test_evaluate_loss_empty_raises(self):
        m = paper_mlp(4, 3, seed=0, hidden=(3, 3))
        with pytest.raises(ValueError, match="empty"):
            m.evaluate_loss(np.empty((0, 4)), np.empty(0, dtype=int))

    def test_layers_are_fixed_at_construction(self):
        m = paper_mlp(4, 3, seed=0, hidden=(3, 3))
        theta = m.theta
        with pytest.raises(AttributeError):
            m.layers.insert(0, Flatten())
        with pytest.raises(TypeError):
            del m.layers[1]
        with pytest.raises(AttributeError):
            m.layers = [Flatten(), *m.layers]
        assert len(m.layers) == 5 and m.theta is theta

    def test_training_reduces_loss(self, tiny_dataset):
        m = paper_mlp(tiny_dataset.flat_features, tiny_dataset.num_classes,
                      seed=0, hidden=(16, 8))
        x, y = tiny_dataset.x, tiny_dataset.y
        theta, grad = m.theta, m.grad
        first = None
        for _ in range(30):
            loss = m.loss_and_grad(x, y)
            first = first if first is not None else loss
            theta -= 0.1 * grad
        assert loss < first * 0.5


class TestFixedLayerStack:
    """``layers`` is fixed at construction and the flat buffers are built
    once; there is no mutation path that rebuilds them."""

    MUTATIONS = {
        "append": lambda layers: layers.append(ReLU()),
        "insert": lambda layers: layers.insert(0, Flatten()),
        "extend": lambda layers: layers.extend([ReLU()]),
        "pop": lambda layers: layers.pop(),
        "remove": lambda layers: layers.remove(layers[1]),
        "clear": lambda layers: layers.clear(),
        "sort": lambda layers: layers.sort(key=id),
        "reverse": lambda layers: layers.reverse(),
        "setitem": lambda layers: layers.__setitem__(1, ReLU()),
        "delitem": lambda layers: layers.__delitem__(1),
    }

    @pytest.mark.parametrize("op", sorted(MUTATIONS))
    def test_layer_list_mutation_raises(self, op):
        m = paper_mlp(4, 3, seed=0, hidden=(3, 3))
        layers, theta, values = m.layers, m.theta, m.theta.copy()
        with pytest.raises((AttributeError, TypeError)):
            self.MUTATIONS[op](m.layers)
        assert m.layers is layers and len(m.layers) == 5
        assert m.theta is theta
        np.testing.assert_array_equal(m.theta, values)

    def test_augmented_assignment_raises(self):
        m = paper_mlp(4, 3, seed=0, hidden=(3, 3))
        with pytest.raises(AttributeError):
            m.layers += (ReLU(),)
        assert len(m.layers) == 5

    def test_constructor_list_is_copied(self):
        rng = np.random.default_rng(0)
        source = [Dense(4, 3, rng=rng)]
        m = Sequential(source)
        source.append(Dense(3, 2, rng=rng))
        assert len(m.layers) == 1 and m.dim == 4 * 3 + 3
        assert m.forward(np.zeros((2, 4)), train=False).shape == (2, 3)

    @pytest.mark.parametrize("family", sorted(BUILDERS))
    def test_buffers_built_once(self, family):
        build, shape = BUILDERS[family]
        m = build()
        theta, grad = m.theta, m.grad
        assert m.dim == sum(p.size for p in m.parameters()) == theta.size
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(3, *shape)), rng.integers(0, 3, size=3)
        m.forward(x, train=True)
        m.loss_and_grad(x, y)
        m.set_flat(np.zeros(m.dim))
        m.evaluate_metrics(x, y)
        m.parameters()
        assert m.theta is theta and m.grad is grad
        for p in m.parameters():
            assert np.shares_memory(p.data, theta)
            assert np.shares_memory(p.grad, grad)

    def test_parameters_returns_a_fresh_list(self):
        m = paper_mlp(4, 3, seed=0, hidden=(3, 3))
        params = m.parameters()
        params.clear()
        assert len(m.parameters()) == 6


class TestEmptyEvaluation:
    """Every evaluation entry point rejects an empty set with the same
    ``ValueError`` instead of dividing by zero or averaging nothing."""

    @pytest.mark.parametrize("method", ["accuracy", "evaluate_loss", "evaluate_metrics"])
    @pytest.mark.parametrize("family", ["cnn", "logistic"])
    def test_empty_set_raises(self, family, method):
        build, shape = BUILDERS[family]
        m = build()
        with pytest.raises(ValueError, match="empty"):
            getattr(m, method)(np.empty((0, *shape)), np.empty(0, dtype=int))

    @pytest.mark.parametrize("batch_size", [1, 4, 7, 256])
    def test_evaluate_metrics_matches_separate_calls(self, batch_size):
        m = paper_mlp(4, 3, seed=0, hidden=(3, 3))
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(19, 4)), rng.integers(0, 3, size=19)
        acc, loss = m.evaluate_metrics(x, y, batch_size=batch_size)
        assert acc == m.accuracy(x, y, batch_size=batch_size)
        assert loss == m.evaluate_loss(x, y, batch_size=batch_size)


class TestPaperArchitectures:
    def test_mlp_default_hidden_is_paper(self):
        m = paper_mlp(784, 10, seed=0)
        # 784*200+200 + 200*100+100 + 100*10+10
        assert num_params(m) == 784 * 200 + 200 + 200 * 100 + 100 + 100 * 10 + 10

    def test_cnn_paper_structure(self):
        m = paper_cnn(3, 32, 10, seed=0)  # the paper's CIFAR input size
        kinds = [type(l).__name__ for l in m.layers]
        assert kinds == [
            "Conv2d", "ReLU", "MaxPool2d", "Conv2d", "ReLU", "MaxPool2d",
            "Flatten", "Dense", "ReLU", "Dense", "ReLU", "Dense",
        ]
        out = m.forward(np.zeros((2, 3, 32, 32)), train=False)
        assert out.shape == (2, 10)

    def test_cnn_rejects_indivisible_size(self):
        with pytest.raises(ValueError):
            paper_cnn(3, 10, 10, seed=0)

    def test_cnn_small_input(self):
        m = paper_cnn(3, 8, 10, seed=0, conv_channels=4, fc_sizes=(8, 6))
        out = m.forward(np.zeros((1, 3, 8, 8)), train=False)
        assert out.shape == (1, 10)

    def test_logistic_is_linear(self):
        m = logistic_model(5, 3, seed=0)
        assert len(m.layers) == 1
        assert isinstance(m.layers[0], Dense)

    def test_seeded_init_reproducible(self):
        a = paper_mlp(6, 3, seed=42, hidden=(4, 3))
        b = paper_mlp(6, 3, seed=42, hidden=(4, 3))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
