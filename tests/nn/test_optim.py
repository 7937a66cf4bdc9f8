"""Tests for repro.nn.optim."""

import numpy as np
import pytest

from repro.nn.optim import InverseTimeLR


class TestSchedules:
    def test_inverse_time_decreasing(self):
        s = InverseTimeLR(numerator=2.0, offset=8.0)
        rates = [s.rate(t) for t in range(5)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        np.testing.assert_allclose(rates[0], 0.25)

    @pytest.mark.parametrize(
        "numerator, offset, step, expected",
        [(2.0, 8.0, 0, 0.25), (2.0, 8.0, 8, 0.125), (1.0, 1.0, 99, 0.01)],
    )
    def test_inverse_time_values(self, numerator, offset, step, expected):
        assert InverseTimeLR(numerator, offset).rate(step) == expected

    def test_theorem_schedule_is_harmonic(self):
        # eta_t * (gamma + t) stays the constant 2/mu (Theorem 5.1).
        mu, gamma = 0.5, 16.0
        s = InverseTimeLR(numerator=2.0 / mu, offset=gamma)
        for t in (0, 1, 10, 1000):
            np.testing.assert_allclose(s.rate(t) * (gamma + t), 2.0 / mu)

    @pytest.mark.parametrize("numerator, offset", [(-1.0, 1.0), (1.0, -1.0)])
    def test_inverse_time_rejects_negative(self, numerator, offset):
        with pytest.raises(ValueError):
            InverseTimeLR(numerator, offset)

    def test_inverse_time_rejects_bad(self):
        with pytest.raises(ValueError):
            InverseTimeLR(0, 1)
        with pytest.raises(ValueError):
            InverseTimeLR(1, 0)
