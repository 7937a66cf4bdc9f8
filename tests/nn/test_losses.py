"""Tests for repro.nn.losses."""

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropy


class TestSoftmaxCrossEntropy:
    def setup_method(self):
        self.loss = SoftmaxCrossEntropy()

    def test_uniform_logits_value(self):
        logits = np.zeros((4, 10))
        y = np.arange(4) % 10
        np.testing.assert_allclose(self.loss.value(logits, y), np.log(10.0))

    def test_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -100.0)
        logits[0, 1] = 100.0
        logits[1, 2] = 100.0
        assert self.loss.value(logits, np.array([1, 2])) < 1e-8

    def test_grad_matches_fd(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 4))
        y = rng.integers(0, 4, size=5)
        g = self.loss.grad(logits, y)
        eps = 1e-6
        for i in range(5):
            for j in range(4):
                orig = logits[i, j]
                logits[i, j] = orig + eps
                up = self.loss.value(logits, y)
                logits[i, j] = orig - eps
                down = self.loss.value(logits, y)
                logits[i, j] = orig
                np.testing.assert_allclose(g[i, j], (up - down) / (2 * eps), rtol=1e-5, atol=1e-9)

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(6, 5))
        y = rng.integers(0, 5, size=6)
        g = self.loss.grad(logits, y)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)

    def test_target_out_of_range_raises(self):
        with pytest.raises(ValueError):
            self.loss.value(np.zeros((2, 3)), np.array([0, 3]))

    def test_negative_target_raises(self):
        with pytest.raises(ValueError):
            self.loss.value(np.zeros((2, 3)), np.array([0, -1]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            self.loss.value(np.zeros((2, 3)), np.array([0, 1, 2]))

    def test_1d_logits_raise(self):
        with pytest.raises(ValueError):
            self.loss.value(np.zeros(3), np.array([0]))
