"""Frozen pre-CSR partitioners: the reference the CSR code is compared against.

A verbatim copy of ``repro.datasets.partition`` as of the commit before
partitions became :class:`~repro.datasets.partition.Partition` — the
dealing loop (per-device ``buckets``, ``np.split``, per-device
``concatenate`` + ``sort``) and the ``min/max(range, key=)`` repair.  Slow
(seconds at 6000 devices) but the definition of "the shards the goldens
were recorded with": ``test_partition_reference.py`` requires the
production partitioners to return exactly these index arrays.  Do not
optimise or "fix" this file.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.core import ClassificationDataset
from repro.utils.rng import as_generator


def _validate(dataset: ClassificationDataset, num_devices: int) -> None:
    if num_devices <= 0:
        raise ValueError(f"num_devices must be positive, got {num_devices}")
    if len(dataset) < num_devices:
        raise ValueError(
            f"cannot split {len(dataset)} samples across {num_devices} devices"
        )


def iid_partition(
    dataset: ClassificationDataset,
    num_devices: int,
    seed: int | np.random.Generator | None = 0,
) -> list[np.ndarray]:
    """Uniform random split into ``num_devices`` near-equal shards."""
    _validate(dataset, num_devices)
    rng = as_generator(seed)
    perm = rng.permutation(len(dataset))
    return [np.sort(part) for part in np.array_split(perm, num_devices)]


def contiguous_partition(
    dataset: ClassificationDataset,
    num_devices: int,
    seed: int | np.random.Generator | None = 0,
) -> list[np.ndarray]:
    """Deal consecutive index runs: device ``i`` gets the ``i``-th
    near-equal slice of ``[0, len(dataset))`` in order.

    The million-device scheme: every shard is a *view* of one shared
    ``arange`` (no per-device index copies), and because the shards are
    already in fleet order :class:`~repro.device.fleet.DeviceFleet` skips
    its gather and aliases the dataset block — building a fleet costs no
    second copy of the data.  Statistically equivalent to IID when the
    dataset's own order is unstructured (synthetic generators draw
    samples i.i.d.), which is what fleet-scale profiles use; ``seed`` is
    accepted for dispatch uniformity and never drawn from.
    """
    _validate(dataset, num_devices)
    return np.array_split(np.arange(len(dataset), dtype=np.intp), num_devices)


def dirichlet_partition(
    dataset: ClassificationDataset,
    num_devices: int,
    beta: float,
    seed: int | np.random.Generator | None = 0,
    min_samples: int = 1,
    max_retries: int = 100,
) -> list[np.ndarray]:
    """Dirichlet(beta) label-skew split (the paper's Non-IID setting).

    For each class ``k`` draw device proportions ``p ~ Dir(beta, ..., beta)``
    and deal that class's samples out accordingly.  Retries (with fresh
    draws) until every device holds at least ``min_samples`` samples, the
    standard practice for this construction.
    """
    _validate(dataset, num_devices)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if min_samples * num_devices > len(dataset):
        raise ValueError("min_samples * num_devices exceeds dataset size")
    rng = as_generator(seed)

    for _ in range(max_retries):
        buckets: list[list[np.ndarray]] = [[] for _ in range(num_devices)]
        for k in range(dataset.num_classes):
            members = np.flatnonzero(dataset.y == k)
            if members.size == 0:
                continue
            members = rng.permutation(members)
            proportions = rng.dirichlet(np.full(num_devices, beta))
            # Cumulative cut points; the final bucket absorbs rounding.
            cuts = (np.cumsum(proportions)[:-1] * members.size).astype(np.intp)
            for dev, part in enumerate(np.split(members, cuts)):
                if part.size:
                    buckets[dev].append(part)
        parts = [
            np.sort(np.concatenate(b)) if b else np.empty(0, dtype=np.intp)
            for b in buckets
        ]
        if min(p.size for p in parts) >= min_samples:
            return parts
    # Extreme skew (tiny beta) can starve some device in every draw.
    # Repair the last draw instead of failing: move samples one at a time
    # from the largest shard to each starved one.  This preserves
    # conservation and barely perturbs the drawn distribution.
    while min(p.size for p in parts) < min_samples:
        smallest = min(range(num_devices), key=lambda i: parts[i].size)
        largest = max(range(num_devices), key=lambda i: parts[i].size)
        if parts[largest].size <= min_samples:  # pragma: no cover - guarded by
            raise RuntimeError("cannot repair partition")  # the min_samples check
        moved, parts[largest] = parts[largest][-1], parts[largest][:-1]
        parts[smallest] = np.sort(np.append(parts[smallest], moved))
    return parts


def shard_partition(
    dataset: ClassificationDataset,
    num_devices: int,
    shards_per_device: int = 2,
    seed: int | np.random.Generator | None = 0,
) -> list[np.ndarray]:
    """McMahan et al.'s pathological split: sort by label, deal out shards."""
    _validate(dataset, num_devices)
    if shards_per_device <= 0:
        raise ValueError("shards_per_device must be positive")
    rng = as_generator(seed)
    num_shards = num_devices * shards_per_device
    if num_shards > len(dataset):
        raise ValueError("more shards than samples")
    # Stable sort by label; ties keep dataset order.
    order = np.argsort(dataset.y, kind="stable")
    shards = np.array_split(order, num_shards)
    assignment = rng.permutation(num_shards)
    parts = []
    for dev in range(num_devices):
        mine = assignment[dev * shards_per_device : (dev + 1) * shards_per_device]
        parts.append(np.sort(np.concatenate([shards[s] for s in mine])))
    return parts
