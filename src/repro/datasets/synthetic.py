"""Synthetic stand-ins for the paper's four datasets.

Construction
------------
Each class ``k`` gets a latent prototype ``mu_k`` drawn on a sphere of
radius ``separation``; a sample of class ``k`` is

``x = P (mu_k + sigma_within * z) + sigma_noise * n``

with ``z, n ~ N(0, I)`` and ``P`` a fixed random projection from latent to
feature space.  An optional elementwise ``tanh`` squashing makes the task
non-linearly separable (CIFAR-like difficulty).

Difficulty ordering (MNIST < EMNIST < CIFAR10 < CIFAR100) is reproduced by
class count, separation, noise scale, and squashing — calibrated so a small
MLP/CNN lands in the paper's relative accuracy bands (high 90s for
MNIST-like, ~80% CIFAR10-like, <50% CIFAR100-like at reduced scale).

These generators do **not** claim to reproduce the pixel statistics of the
real datasets — only the properties the paper's evaluation manipulates:
class structure, label-distribution skew across devices, and relative task
difficulty (see DESIGN.md).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.datasets.core import ClassificationDataset
from repro.utils.rng import as_generator

__all__ = [
    "SyntheticSpec",
    "make_synthetic",
    "mnist_like",
    "emnist_like",
    "cifar10_like",
    "cifar100_like",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Full parameterization of one synthetic classification task."""

    name: str
    num_classes: int
    num_samples: int
    latent_dim: int
    feature_shape: tuple[int, ...]  # (D,) flat or (C, H, W) image
    separation: float = 3.0
    sigma_within: float = 1.0
    sigma_noise: float = 0.5
    squash: bool = False
    balanced: bool = True

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.num_samples < self.num_classes:
            raise ValueError("need at least one sample per class")
        if self.latent_dim <= 0:
            raise ValueError("latent_dim must be positive")
        if len(self.feature_shape) not in (1, 3):
            raise ValueError("feature_shape must be (D,) or (C, H, W)")


def _sample_labels(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Balanced (round-robin) or uniform-random labels."""
    if spec.balanced:
        y = np.arange(spec.num_samples) % spec.num_classes
        return rng.permutation(y)
    return rng.integers(0, spec.num_classes, size=spec.num_samples)


#: ``arrange(y, num_classes) -> order``: the row order of a generated dataset.
Arrange = Callable[[np.ndarray, int], np.ndarray]

#: Samples generated per GEMM: the generator's working set beyond the
#: result is ``_CHUNK_ROWS`` feature rows, however many samples it makes.
_CHUNK_ROWS = 2048


def make_synthetic(
    spec: SyntheticSpec,
    seed: int | np.random.Generator | None = 0,
    arrange: Arrange | None = None,
) -> ClassificationDataset:
    """Generate the dataset described by ``spec`` deterministically from ``seed``.

    ``arrange(y, num_classes) -> order`` sees the labels before any feature
    is drawn and sets the row order of the result: row ``i`` is sample
    ``order[i]``, where ``order`` is a permutation of the sample indices.
    Each sample is written once, straight to its row, so arranging copies
    no features; the samples themselves do not depend on ``arrange``.
    """
    rng = as_generator(seed)
    n, d_feat = spec.num_samples, int(np.prod(spec.feature_shape))

    # Class prototypes on a sphere in latent space.
    protos = rng.normal(size=(spec.num_classes, spec.latent_dim))
    protos /= np.linalg.norm(protos, axis=1, keepdims=True)
    protos *= spec.separation

    # Fixed random projection latent -> feature, column-normalized so the
    # signal scale is independent of latent_dim.
    proj = rng.normal(size=(spec.latent_dim, d_feat)) / np.sqrt(spec.latent_dim)

    y = _sample_labels(spec, rng)
    order = np.arange(n) if arrange is None else arrange(y, spec.num_classes)
    rows = np.full(n, -1)  # sample -> row: the inverse of ``order``
    rows[order] = np.arange(len(order))
    if len(order) != n or rows.min() < 0:
        raise ValueError("arrange must return a permutation of the sample indices")

    # The latent noise is drawn whole, then the feature noise one chunk of
    # samples at a time, in sample order: the stream is consumed exactly as
    # by one draw of each (``standard_normal`` draws what ``normal(0, 1)``
    # draws), and each chunk's rows land at their final rows.
    latent = rng.standard_normal((n, spec.latent_dim))
    latent *= spec.sigma_within
    x = np.empty((n, d_feat))
    # A one-row product runs as a GEMV, whose row is not bit-identical to
    # a GEMM's: a lone trailing sample joins the chunk before it.
    bounds = [*range(0, n - 1, _CHUNK_ROWS), n]  # n >= num_classes >= 2
    for start, stop in zip(bounds, bounds[1:]):
        chunk = slice(start, stop)
        latent[chunk] += protos[y[chunk]]
        features = latent[chunk] @ proj
        noise = rng.standard_normal(features.shape)
        noise *= spec.sigma_noise
        features += noise
        if spec.squash:
            np.tanh(features, out=features)
        x[rows[chunk]] = features
    x = x.reshape((n, *spec.feature_shape))
    return ClassificationDataset(x, y[order], spec.num_classes, name=spec.name)


def mnist_like(
    num_samples: int = 4000,
    seed: int | np.random.Generator | None = 0,
    feature_dim: int = 64,
    arrange: Arrange | None = None,
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
    return make_synthetic(spec, seed, arrange)


def emnist_like(
    num_samples: int = 5000,
    seed: int | np.random.Generator | None = 0,
    feature_dim: int = 64,
    arrange: Arrange | None = None,
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
    return make_synthetic(spec, seed, arrange)


def cifar10_like(
    num_samples: int = 4000,
    seed: int | np.random.Generator | None = 0,
    image_size: int = 8,
    channels: int = 3,
    arrange: Arrange | None = None,
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
    return make_synthetic(spec, seed, arrange)


def cifar100_like(
    num_samples: int = 5000,
    seed: int | np.random.Generator | None = 0,
    image_size: int = 8,
    channels: int = 3,
    arrange: Arrange | None = None,
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
    return make_synthetic(spec, seed, arrange)
