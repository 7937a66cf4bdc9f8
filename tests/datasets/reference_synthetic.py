"""Frozen whole-array generator: the reference the row-chunked one is
compared against.

A verbatim copy of ``make_synthetic``, ``_sample_labels`` and the four
named factories of ``repro.datasets.synthetic`` as of the commit before
samples were generated in row chunks straight into their final rows: one
``latent @ proj`` GEMM over every sample and one ``(N, D)`` noise draw.
The definition of "the samples the goldens were recorded with":
``test_synthetic_reference.py`` requires the production generator to
return exactly these arrays.  Do not optimise or "fix" this file.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.core import ClassificationDataset
from repro.datasets.synthetic import SyntheticSpec
from repro.utils.rng import as_generator


def _sample_labels(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Balanced (round-robin) or uniform-random labels."""
    if spec.balanced:
        y = np.arange(spec.num_samples) % spec.num_classes
        return rng.permutation(y)
    return rng.integers(0, spec.num_classes, size=spec.num_samples)


def make_synthetic(
    spec: SyntheticSpec, seed: int | np.random.Generator | None = 0
) -> ClassificationDataset:
    """Generate the dataset described by ``spec`` deterministically from ``seed``."""
    rng = as_generator(seed)
    d_feat = int(np.prod(spec.feature_shape))

    # Class prototypes on a sphere in latent space.
    protos = rng.normal(size=(spec.num_classes, spec.latent_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    protos *= spec.separation

    # Fixed random projection latent -> feature, column-normalized so the
    # signal scale is independent of latent_dim.
    proj = rng.normal(size=(spec.latent_dim, d_feat)) / np.sqrt(spec.latent_dim)

    y = _sample_labels(spec, rng)
    latent = protos[y] + spec.sigma_within * rng.normal(
        size=(spec.num_samples, spec.latent_dim)
    )
    x = latent @ proj
    x += spec.sigma_noise * rng.normal(size=x.shape)
    if spec.squash:
        np.tanh(x, out=x)
    x = x.reshape((spec.num_samples, *spec.feature_shape))
    return ClassificationDataset(x, y, spec.num_classes, name=spec.name)


def mnist_like(
    num_samples: int = 4000,
    seed: int | np.random.Generator | None = 0,
    feature_dim: int = 64,
) -> ClassificationDataset:
    """10 well-separated classes, flat features — easiest task (MNIST role)."""
    spec = SyntheticSpec(
        name="mnist_like",
        num_classes=10,
        num_samples=num_samples,
        latent_dim=16,
        feature_shape=(feature_dim,),
        separation=4.0,
        sigma_within=0.9,
        sigma_noise=0.4,
    )
    return make_synthetic(spec, seed)


def emnist_like(
    num_samples: int = 5000,
    seed: int | np.random.Generator | None = 0,
    feature_dim: int = 64,
) -> ClassificationDataset:
    """26 classes, flat features, more class crowding (EMNIST-Letters role)."""
    spec = SyntheticSpec(
        name="emnist_like",
        num_classes=26,
        num_samples=num_samples,
        latent_dim=24,
        feature_shape=(feature_dim,),
        separation=4.2,
        sigma_within=1.0,
        sigma_noise=0.5,
    )
    return make_synthetic(spec, seed)


def cifar10_like(
    num_samples: int = 4000,
    seed: int | np.random.Generator | None = 0,
    image_size: int = 8,
    channels: int = 3,
) -> ClassificationDataset:
    """10 classes, image tensor, squashed — hard task (CIFAR10 role)."""
    spec = SyntheticSpec(
        name="cifar10_like",
        num_classes=10,
        num_samples=num_samples,
        latent_dim=20,
        feature_shape=(channels, image_size, image_size),
        separation=3.0,
        sigma_within=1.0,
        sigma_noise=0.7,
        squash=True,
    )
    return make_synthetic(spec, seed)


def cifar100_like(
    num_samples: int = 5000,
    seed: int | np.random.Generator | None = 0,
    image_size: int = 8,
    channels: int = 3,
) -> ClassificationDataset:
    """100 classes, image tensor, squashed — hardest task (CIFAR100 role)."""
    spec = SyntheticSpec(
        name="cifar100_like",
        num_classes=100,
        num_samples=num_samples,
        latent_dim=48,
        feature_shape=(channels, image_size, image_size),
        separation=3.5,
        sigma_within=1.0,
        sigma_noise=0.6,
        squash=True,
    )
    return make_synthetic(spec, seed)
