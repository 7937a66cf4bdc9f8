"""Dataset substrate: synthetic stand-ins for MNIST/EMNIST/CIFAR plus
IID / Dirichlet / shard partitioners.

The paper evaluates on MNIST, EMNIST-Letters, CIFAR10 and CIFAR100, split
across 100 devices with label distributions drawn from a Dirichlet(beta).
Offline, we generate synthetic classification tasks with the same class
counts and the same difficulty *ordering* (see DESIGN.md substitution
table); the partitioners reproduce the paper's splits exactly.
"""

from repro.datasets.core import ClassificationDataset, train_test_split
from repro.datasets.partition import (
    Partition,
    contiguous_partition,
    dirichlet_partition,
    iid_partition,
    label_distribution,
    partition_by_name,
    shard_partition,
)
from repro.datasets.registry import DATASETS, make_dataset
from repro.datasets.synthetic import (
    SyntheticSpec,
    cifar10_like,
    cifar100_like,
    emnist_like,
    make_synthetic,
    mnist_like,
)

__all__ = [
    "ClassificationDataset",
    "train_test_split",
    "Partition",
    "iid_partition",
    "contiguous_partition",
    "dirichlet_partition",
    "shard_partition",
    "partition_by_name",
    "label_distribution",
    "SyntheticSpec",
    "make_synthetic",
    "mnist_like",
    "emnist_like",
    "cifar10_like",
    "cifar100_like",
    "DATASETS",
    "make_dataset",
]
