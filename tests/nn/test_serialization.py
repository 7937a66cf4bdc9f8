"""Serialization tests including the hypothesis round-trip property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.models import paper_cnn, paper_mlp
from repro.nn.serialization import get_flat_grads, get_flat_params, num_params, set_flat_params


class TestNumParams:
    def test_mlp_count(self):
        m = paper_mlp(10, 4, seed=0, hidden=(8, 6))
        expected = (10 * 8 + 8) + (8 * 6 + 6) + (6 * 4 + 4)
        assert num_params(m) == expected

    def test_cnn_count_positive(self):
        m = paper_cnn(2, 4, 3, seed=0, conv_channels=4, fc_sizes=(8, 6))
        assert num_params(m) > 0


class TestRoundTrip:
    def test_get_set_identity(self):
        m = paper_mlp(6, 3, seed=1, hidden=(5, 4))
        v = get_flat_params(m)
        set_flat_params(m, v)
        np.testing.assert_array_equal(get_flat_params(m), v)

    def test_set_changes_model_output(self):
        m = paper_mlp(6, 3, seed=1, hidden=(5, 4))
        x = np.random.default_rng(0).normal(size=(2, 6))
        before = m.forward(x, train=False)
        set_flat_params(m, np.zeros(num_params(m)))
        after = m.forward(x, train=False)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(after, 0.0)  # all-zero weights -> zero logits

    def test_out_buffer_reused(self):
        m = paper_mlp(6, 3, seed=1, hidden=(5, 4))
        buf = np.empty(num_params(m))
        out = get_flat_params(m, out=buf)
        assert out is buf

    def test_wrong_length_raises(self):
        m = paper_mlp(6, 3, seed=1, hidden=(5, 4))
        with pytest.raises(ValueError):
            set_flat_params(m, np.zeros(num_params(m) + 1))

    def test_wrong_out_shape_raises(self):
        m = paper_mlp(6, 3, seed=1, hidden=(5, 4))
        with pytest.raises(ValueError):
            get_flat_params(m, out=np.empty(3))

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_property_roundtrip_arbitrary_vectors(self, seed):
        """set_flat_params . get_flat_params == identity on R^d."""
        m = paper_mlp(5, 3, seed=0, hidden=(4, 3))
        v = np.random.default_rng(seed).normal(size=num_params(m)) * 10
        set_flat_params(m, v)
        np.testing.assert_array_equal(get_flat_params(m), v)


class TestFlatGrads:
    def test_out_buffer_reused(self):
        m = paper_mlp(5, 3, seed=0, hidden=(4, 3))
        m.loss_and_grad(np.ones((2, 5)), np.array([0, 2]))
        buf = np.empty(num_params(m))
        out = get_flat_grads(m, out=buf)
        assert out is buf
        np.testing.assert_array_equal(buf, m.grad)

    def test_wrong_out_shape_raises(self):
        m = paper_mlp(5, 3, seed=0, hidden=(4, 3))
        with pytest.raises(ValueError):
            get_flat_grads(m, out=np.empty(num_params(m) - 1))

    def test_zero_after_zero_grad(self):
        m = paper_mlp(5, 3, seed=0, hidden=(4, 3))
        m.zero_grad()
        np.testing.assert_array_equal(get_flat_grads(m), 0.0)

    def test_nonzero_after_backward(self):
        m = paper_mlp(5, 3, seed=0, hidden=(4, 3))
        rng = np.random.default_rng(1)
        m.zero_grad()
        m.loss_and_grad(rng.normal(size=(4, 5)), rng.integers(0, 3, size=4))
        assert np.abs(get_flat_grads(m)).sum() > 0

    def test_order_matches_params(self):
        """Flat grads align with flat params coordinate-by-coordinate."""
        m = paper_mlp(5, 3, seed=0, hidden=(4, 3))
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(8, 5)), rng.integers(0, 3, size=8)
        m.zero_grad()
        m.loss_and_grad(x, y)
        g = get_flat_grads(m)
        w0 = get_flat_params(m)
        eta = 0.01
        set_flat_params(m, w0 - eta * g)
        # One explicit gradient step must equal the optimizer-free update.
        params_after = get_flat_params(m)
        np.testing.assert_allclose(params_after, w0 - eta * g)
