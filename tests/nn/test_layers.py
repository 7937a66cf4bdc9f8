"""Layer tests: shapes, finite-difference gradient checks, error paths."""

import numpy as np
import pytest

from repro.nn.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU
from repro.nn.losses import SoftmaxCrossEntropy


def numeric_grad_input(layer, x, upstream, eps=1e-6):
    """Finite-difference d<upstream, layer(x)>/dx."""
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        up = np.vdot(upstream, layer.forward(x, train=False))
        flat_x[i] = orig - eps
        down = np.vdot(upstream, layer.forward(x, train=False))
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2 * eps)
    return grad


def check_input_grad(layer, x, rtol=1e-5, atol=1e-7):
    rng = np.random.default_rng(0)
    out = layer.forward(x, train=True)
    upstream = rng.normal(size=out.shape)
    analytic = layer.backward(upstream)
    numeric = numeric_grad_input(layer, x, upstream)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def check_param_grads(layer, x, rtol=1e-5, atol=1e-7, eps=1e-6):
    rng = np.random.default_rng(1)
    out = layer.forward(x, train=True)
    upstream = rng.normal(size=out.shape)
    for p in layer.parameters():
        p.zero_grad()
    layer.backward(upstream)
    for p in layer.parameters():
        flat = p.data.ravel()
        gflat = p.grad.ravel()
        # Sample a handful of coordinates to keep runtime sane.
        idxs = rng.choice(flat.size, size=min(8, flat.size), replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            up = np.vdot(upstream, layer.forward(x, train=False))
            flat[i] = orig - eps
            down = np.vdot(upstream, layer.forward(x, train=False))
            flat[i] = orig
            np.testing.assert_allclose(
                gflat[i], (up - down) / (2 * eps), rtol=rtol, atol=atol,
                err_msg=f"param {p.name} index {i}",
            )


class TestDense:
    def test_output_shape(self):
        layer = Dense(5, 3, rng=np.random.default_rng(0))
        assert layer.forward(np.zeros((7, 5))).shape == (7, 3)

    def test_input_gradient(self):
        layer = Dense(4, 3, rng=np.random.default_rng(0))
        check_input_grad(layer, np.random.default_rng(2).normal(size=(5, 4)))

    def test_param_gradients(self):
        layer = Dense(4, 3, rng=np.random.default_rng(0))
        check_param_grads(layer, np.random.default_rng(3).normal(size=(5, 4)))

    def test_grad_accumulates(self):
        layer = Dense(3, 2, rng=np.random.default_rng(0))
        x = np.ones((2, 3))
        layer.forward(x, train=True)
        layer.backward(np.ones((2, 2)))
        g1 = layer.weight.grad.copy()
        layer.forward(x, train=True)
        layer.backward(np.ones((2, 2)))
        np.testing.assert_allclose(layer.weight.grad, 2 * g1)

    def test_backward_without_forward_raises(self):
        layer = Dense(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 2)))

    def test_eval_forward_does_not_cache(self):
        layer = Dense(3, 2, rng=np.random.default_rng(0))
        layer.forward(np.ones((2, 3)), train=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 2)))

    def test_wrong_width_raises(self):
        layer = Dense(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.forward(np.ones((2, 4)))

    @pytest.mark.parametrize("bad", [(0, 2), (2, 0), (-1, 2)])
    def test_bad_dims_raise(self, bad):
        with pytest.raises(ValueError):
            Dense(*bad)


class TestConv2d:
    def test_output_shape_same_padding(self):
        layer = Conv2d(3, 4, 5, padding=2, rng=np.random.default_rng(0))
        assert layer.forward(np.zeros((2, 3, 8, 8))).shape == (2, 4, 8, 8)

    def test_output_shape_valid(self):
        layer = Conv2d(1, 2, 3, rng=np.random.default_rng(0))
        assert layer.forward(np.zeros((1, 1, 6, 6))).shape == (1, 2, 4, 4)

    def test_stride(self):
        layer = Conv2d(1, 1, 2, stride=2, rng=np.random.default_rng(0))
        assert layer.forward(np.zeros((1, 1, 6, 6))).shape == (1, 1, 3, 3)

    def test_input_gradient(self):
        layer = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0))
        check_input_grad(layer, np.random.default_rng(4).normal(size=(2, 2, 4, 4)))

    def test_param_gradients(self):
        layer = Conv2d(2, 2, 3, padding=1, rng=np.random.default_rng(0))
        check_param_grads(layer, np.random.default_rng(5).normal(size=(2, 2, 4, 4)))

    def test_known_convolution(self):
        layer = Conv2d(1, 1, 2, rng=np.random.default_rng(0))
        layer.weight.data[...] = 1.0
        layer.bias.data[...] = 0.0
        x = np.arange(9, dtype=float).reshape(1, 1, 3, 3)
        out = layer.forward(x, train=False)
        np.testing.assert_allclose(out[0, 0], [[8, 12], [20, 24]])

    def test_channel_mismatch_raises(self):
        layer = Conv2d(3, 4, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 2, 8, 8)))

    def test_backward_without_forward_raises(self):
        layer = Conv2d(1, 1, 3, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1, 2, 2)))


class TestReLU:
    def test_forward_clamps(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_gradient_mask(self):
        layer = ReLU()
        x = np.array([[-1.0, 3.0]])
        layer.forward(x, train=True)
        grad = layer.backward(np.array([[5.0, 7.0]]))
        np.testing.assert_allclose(grad, [[0.0, 7.0]])

    def test_input_gradient(self):
        check_input_grad(ReLU(), np.random.default_rng(6).normal(size=(4, 5)) + 0.1)


class TestFlatten:
    def test_roundtrip(self):
        layer = Flatten()
        x = np.random.default_rng(8).normal(size=(3, 2, 4, 4))
        out = layer.forward(x, train=True)
        assert out.shape == (3, 32)
        back = layer.backward(out)
        np.testing.assert_allclose(back, x)


class TestMaxPool2d:
    def test_forward_values(self):
        layer = MaxPool2d(2)
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = layer.forward(x, train=False)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_input_gradient(self):
        layer = MaxPool2d(2)
        # Break ties by adding noise so argmax is unique (FD needs that).
        x = np.random.default_rng(9).normal(size=(2, 2, 4, 4))
        check_input_grad(layer, x)

    def test_indivisible_raises(self):
        with pytest.raises(ValueError):
            MaxPool2d(3).forward(np.zeros((1, 1, 4, 4)))

    def test_gradient_routes_to_max(self):
        layer = MaxPool2d(2)
        x = np.zeros((1, 1, 2, 2))
        x[0, 0, 1, 1] = 5.0
        layer.forward(x, train=True)
        grad = layer.backward(np.array([[[[3.0]]]]))
        assert grad[0, 0, 1, 1] == 3.0
        assert grad.sum() == 3.0


class TestEndToEndGradient:
    def test_full_network_gradcheck(self):
        """Whole-model gradient check through conv, pool, dense and loss."""
        rng = np.random.default_rng(11)
        from repro.nn.models import Sequential

        model = Sequential(
            [
                Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0)),
                ReLU(),
                MaxPool2d(2),
                Flatten(),
                Dense(12, 4, rng=np.random.default_rng(1)),
            ],
            loss=SoftmaxCrossEntropy(),
        )
        x = rng.normal(size=(3, 2, 4, 4))
        y = rng.integers(0, 4, size=3)
        model.zero_grad()
        model.loss_and_grad(x, y)
        eps = 1e-6
        for p in model.parameters():
            flat, gflat = p.data.ravel(), p.grad.ravel()
            for i in rng.choice(flat.size, size=min(5, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                up = model.loss.value(model.forward(x, train=False), y)
                flat[i] = orig - eps
                down = model.loss.value(model.forward(x, train=False), y)
                flat[i] = orig
                np.testing.assert_allclose(
                    gflat[i], (up - down) / (2 * eps), rtol=1e-4, atol=1e-7
                )
