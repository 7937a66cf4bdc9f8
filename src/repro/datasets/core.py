"""Dataset container and the stratified train/test split.

A :class:`ClassificationDataset` is an immutable-by-convention pair of a
feature array ``x`` (either flat ``(N, D)`` or image ``(N, C, H, W)``) and an
integer label vector ``y``.  Device shards are *views* onto the parent
arrays via index selection — no per-device copies of the data (guide: views
over copies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["ClassificationDataset", "split_indices", "train_test_split"]


@dataclass
class ClassificationDataset:
    """Features + integer labels + class count."""

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self) -> None:
        self.y = np.asarray(self.y)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"x and y disagree on N: {self.x.shape[0]} vs {self.y.shape[0]}"
            )
        if self.y.ndim != 1:
            raise ValueError(f"y must be 1-D, got shape {self.y.shape}")
        if self.num_classes <= 0:
            raise ValueError(f"num_classes must be positive, got {self.num_classes}")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")

    def __len__(self) -> int:
        return int(self.x.shape[0])

    @property
    def feature_shape(self) -> tuple[int, ...]:
        """Shape of one sample (without the batch axis)."""
        return self.x.shape[1:]

    @property
    def flat_features(self) -> int:
        """Number of scalar features per sample."""
        return int(np.prod(self.feature_shape))

    def subset(self, indices: np.ndarray, name: str | None = None) -> "ClassificationDataset":
        """Select samples by index (fancy indexing copies; indices stay small)."""
        indices = np.asarray(indices, dtype=np.intp)
        return ClassificationDataset(
            self.x[indices],
            self.y[indices],
            self.num_classes,
            name=name if name is not None else self.name,
        )

    def class_counts(self) -> np.ndarray:
        """Histogram of labels (length ``num_classes``)."""
        return np.bincount(self.y, minlength=self.num_classes)


def train_test_split(
    dataset: ClassificationDataset,
    test_fraction: float = 0.2,
    seed: int | np.random.Generator | None = 0,
    stratified: bool = True,
) -> tuple[ClassificationDataset, ClassificationDataset]:
    """Split into train/test; stratified keeps per-class proportions.

    The paper assumes "the data distributions of the training set and test
    set of overall data are the same" (Section 3.2) — stratification
    enforces exactly that.
    """
    train, test = split_indices(
        dataset.y, dataset.num_classes, test_fraction, seed, stratified
    )
    return (
        dataset.subset(train, name=f"{dataset.name}/train"),
        dataset.subset(test, name=f"{dataset.name}/test"),
    )


def split_indices(
    y: np.ndarray,
    num_classes: int,
    test_fraction: float = 0.2,
    seed: int | np.random.Generator | None = 0,
    stratified: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(train, test)`` sample indices :func:`train_test_split` selects,
    computed from the labels alone."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = as_generator(seed)
    if not stratified:
        perm = rng.permutation(y.size)
        cut = int(round(y.size * test_fraction))
        return perm[cut:], perm[:cut]
    train: list[np.ndarray] = []
    test: list[np.ndarray] = []
    for k in range(num_classes):
        members = rng.permutation(np.flatnonzero(y == k))
        cut = int(round(members.size * test_fraction))
        test.append(members[:cut])
        train.append(members[cut:])
    # Test before train: the stream order every recorded run depends on.
    test_idx = rng.permutation(np.concatenate(test))
    return rng.permutation(np.concatenate(train)), test_idx
