"""Tests for the Eq. (4) divergence metric."""

import numpy as np
import pytest

from repro.analysis.divergence import (
    empirical_divergence_proxy,
    label_divergence,
    per_device_divergence,
)
from repro.datasets.partition import dirichlet_partition, iid_partition, label_distribution
from repro.device import make_fleet
from repro.device.batched import run_units
from repro.nn.serialization import get_flat_params


class TestPerDeviceDivergence:
    def test_identical_distributions_zero(self):
        hist = np.array([[10, 10], [20, 20]])
        np.testing.assert_allclose(per_device_divergence(hist), 0.0)

    def test_disjoint_classes_max(self):
        hist = np.array([[10, 0], [0, 10]])
        # each device is L1 distance 1 from the 50/50 global: |1-.5|+|0-.5|=1
        np.testing.assert_allclose(per_device_divergence(hist), [1.0, 1.0])

    def test_empty_device_raises(self):
        with pytest.raises(ValueError):
            per_device_divergence(np.array([[1, 1], [0, 0]]))

    def test_1d_raises(self):
        with pytest.raises(ValueError):
            per_device_divergence(np.array([1, 2]))


class TestLabelDivergence:
    def test_total_is_sum(self):
        hist = np.array([[10, 0], [0, 10]])
        assert label_divergence(hist) == pytest.approx(2.0)

    def test_dirichlet_skew_monotone(self, tiny_dataset):
        """Smaller beta -> larger Eq. (4) divergence."""
        values = {}
        for beta in (0.1, 1.0, 100.0):
            parts = dirichlet_partition(tiny_dataset, 10, beta=beta, seed=0)
            values[beta] = label_divergence(label_distribution(tiny_dataset, parts))
        assert values[0.1] > values[1.0] > values[100.0]

    def test_iid_near_zero(self, tiny_dataset):
        parts = iid_partition(tiny_dataset, 5, seed=0)
        hist = label_distribution(tiny_dataset, parts)
        assert label_divergence(hist) < 1.0  # small sampling noise only


class TestEmpiricalProxy:
    def test_proxy_tracks_partition_skew(self, tiny_split, tiny_trainer):
        """Device models trained on IID shards generalize better than ones
        trained on highly skewed shards — the paper's accuracy proxy."""
        train_set, test_set = tiny_split
        scores = {}
        for name, beta in (("iid", None), ("skew", 0.1)):
            if beta is None:
                parts = iid_partition(train_set, 6, seed=1)
            else:
                parts = dirichlet_partition(train_set, 6, beta=beta, seed=1)
            devices = make_fleet(train_set, parts, np.ones(6), tiny_trainer)
            w0 = get_flat_params(tiny_trainer.model)
            stack = np.empty((6, devices.dim))
            run_units(None, devices, devices.device_ids, 20, 0, w0, stack)
            scores[name] = empirical_divergence_proxy(devices, test_set, stack)
        assert scores["iid"] > scores["skew"]

    def test_shape_mismatch_raises(self, tiny_devices, tiny_split):
        _, test_set = tiny_split
        with pytest.raises(ValueError):
            empirical_divergence_proxy(
                tiny_devices, test_set, np.zeros((1, tiny_devices.dim))
            )
