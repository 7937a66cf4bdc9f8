"""Name-based dataset construction for experiment configs.

Maps the paper's dataset names onto the synthetic generators with the
model family and target accuracy each uses in Table 1.  ``DATASETS`` is
one :class:`~repro.utils.registry.Registry` (see that module for the
contract shared with every other named axis).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets.core import ClassificationDataset
from repro.datasets.synthetic import cifar10_like, cifar100_like, emnist_like, mnist_like
from repro.utils.registry import Entry, Registry

__all__ = ["DatasetEntry", "DATASETS", "make_dataset"]


@dataclass(frozen=True, kw_only=True)
class DatasetEntry(Entry):
    """Generator plus the experiment metadata tied to a dataset name."""

    model_family: str  # "mlp" (MNIST/EMNIST role) or "cnn" (CIFAR role)
    paper_target_accuracy: float  # Table 1 target on the real dataset
    paper_rounds: int  # Table 1 round budget


DATASETS = Registry("dataset", entry_cls=DatasetEntry)

for _name, _factory, _family, _target, _rounds in (
    ("mnist_like", mnist_like, "mlp", 0.96, 100),
    ("emnist_like", emnist_like, "mlp", 0.86, 100),
    ("cifar10_like", cifar10_like, "cnn", 0.75, 150),
    ("cifar100_like", cifar100_like, "cnn", 0.33, 150),
):
    DATASETS.register(
        _name,
        model_family=_family,
        paper_target_accuracy=_target,
        paper_rounds=_rounds,
    )(_factory)


def make_dataset(
    name: str,
    num_samples: int | None = None,
    seed: int | np.random.Generator | None = 0,
    **kwargs,
) -> ClassificationDataset:
    """Build the named dataset; ``num_samples`` overrides the default size."""
    if num_samples is not None:
        kwargs["num_samples"] = num_samples
    return DATASETS.entry(name).factory(seed=seed, **kwargs)
