"""Shared fixtures: tiny datasets, models, trainers and device fleets.

Everything here is deliberately small — tests exercise behaviour and
invariants, not benchmark-scale accuracy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import train_test_split
from repro.datasets.synthetic import SyntheticSpec, make_synthetic
from repro.device import LocalTrainer, make_fleet, unit_times_from_counts
from repro.datasets.partition import dirichlet_partition, iid_partition
from repro.nn.models import paper_mlp


@pytest.fixture(scope="session")
def tiny_dataset():
    """400 samples, 4 classes, 12 flat features — fast to train on."""
    spec = SyntheticSpec(
        name="tiny",
        num_classes=4,
        num_samples=400,
        latent_dim=8,
        feature_shape=(12,),
        separation=4.0,
        sigma_within=0.8,
        sigma_noise=0.3,
    )
    return make_synthetic(spec, seed=0)


@pytest.fixture(scope="session")
def tiny_image_dataset():
    """240 samples, 3 classes, (2, 4, 4) images for conv paths."""
    spec = SyntheticSpec(
        name="tiny_img",
        num_classes=3,
        num_samples=240,
        latent_dim=8,
        feature_shape=(2, 4, 4),
        separation=3.5,
        sigma_within=0.8,
        sigma_noise=0.4,
        squash=True,
    )
    return make_synthetic(spec, seed=1)


@pytest.fixture()
def tiny_split(tiny_dataset):
    return train_test_split(tiny_dataset, 0.25, seed=2)


@pytest.fixture()
def tiny_model(tiny_dataset):
    return paper_mlp(tiny_dataset.flat_features, tiny_dataset.num_classes,
                     seed=3, hidden=(16, 8))


@pytest.fixture()
def tiny_trainer(tiny_model):
    return LocalTrainer(tiny_model, lr=0.1, batch_size=32, seed=4)


@pytest.fixture()
def tiny_devices(tiny_split, tiny_trainer):
    """8 devices, Dirichlet(0.5) split, unit counts 1/2/4."""
    train_set, _ = tiny_split
    parts = dirichlet_partition(train_set, 8, beta=0.5, seed=5, min_samples=2)
    counts = np.array([1, 2, 4, 1, 2, 4, 1, 2])
    return make_fleet(train_set, parts, unit_times_from_counts(counts), tiny_trainer)


@pytest.fixture()
def homogeneous_devices(tiny_split, tiny_trainer):
    """6 devices, IID split, identical speeds."""
    train_set, _ = tiny_split
    parts = iid_partition(train_set, 6, seed=6)
    return make_fleet(train_set, parts, np.ones(6), tiny_trainer)


@pytest.fixture()
def tiny_fleet(tiny_devices):
    """``tiny_devices`` under the name the fleet-storage tests read best with."""
    return tiny_devices
