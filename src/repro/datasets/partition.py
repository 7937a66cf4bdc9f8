"""Partition a dataset across federated devices.

Implements the splits used in the paper:

* **IID** — a uniform random equal split.
* **Dirichlet(beta)** — for every class, the proportion assigned to each
  device is drawn from ``Dir(beta * 1)``; small beta = highly skewed label
  distributions (the paper uses beta in {0.3, 0.8}).
* **Shard** — the classic FedAvg pathological split (sort by label, deal
  out contiguous shards), provided for completeness.
* **Contiguous** — consecutive index runs, the million-device scheme.

All partitioners return a :class:`Partition` — the shards in CSR form, one
``indices`` array plus ``offsets`` — and satisfy the *conservation*
invariant: shards are disjoint and their union is every sample exactly
once (property-tested).  No partitioner deals samples into per-device
Python objects: each computes an owner per sample and sorts once.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence

import numpy as np

from repro.datasets.core import ClassificationDataset
from repro.utils.rng import as_generator

__all__ = [
    "Partition",
    "iid_partition",
    "contiguous_partition",
    "dirichlet_partition",
    "shard_partition",
    "partition_by_name",
    "label_distribution",
]


class Partition:
    """Device shards in CSR form: device ``i`` holds
    ``indices[offsets[i]:offsets[i + 1]]``.

    Behaves like the sequence of index arrays it replaces — ``len(p)`` is
    the device count, ``p[i]`` a zero-copy view of shard ``i``, iteration
    yields the shards in device order — while the fleet reads ``indices``
    and ``sizes`` directly, so a million shards are two arrays rather than
    a million objects.  The partitioners emit every shard ascending.

    Validated once, here: ``offsets`` starts at 0, never decreases and ends
    at ``indices.size``; every index is non-negative and, when
    ``num_samples`` (the length of the dataset indexed) is given, below it.
    """

    __slots__ = ("indices", "offsets", "num_samples")

    def __init__(
        self,
        indices: np.ndarray,
        offsets: np.ndarray,
        num_samples: int | None = None,
    ) -> None:
        indices = np.asarray(indices, dtype=np.intp)
        offsets = np.asarray(offsets, dtype=np.intp)
        if indices.ndim != 1 or offsets.ndim != 1 or offsets.size == 0:
            raise ValueError("indices must be 1-D and offsets 1-D with >= 1 entry")
        if offsets[0] != 0 or offsets[-1] != indices.size:
            raise ValueError(
                f"offsets must run from 0 to indices.size ({indices.size}), "
                f"got {int(offsets[0])}..{int(offsets[-1])}"
            )
        if np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("offsets must be non-decreasing")
        if indices.size:
            low, high = int(indices.min()), int(indices.max())
            if low < 0 or (num_samples is not None and high >= num_samples):
                bound = "" if num_samples is None else f", {num_samples}"
                raise ValueError(
                    f"shard indices must lie in [0{bound}), got {low}..{high}"
                )
        self.indices = indices
        self.offsets = offsets
        self.num_samples = num_samples

    @classmethod
    def of(
        cls, parts: "Partition | Sequence[np.ndarray]", num_samples: int
    ) -> "Partition":
        """``parts`` as a Partition checked against a ``num_samples``-long
        dataset: a Partition already checked against that length is
        returned as is; a sequence of index arrays is concatenated."""
        if isinstance(parts, cls):
            if parts.num_samples == num_samples:
                return parts
            return cls(parts.indices, parts.offsets, num_samples)
        shards = [np.asarray(p, dtype=np.intp) for p in parts]
        offsets = _offsets(np.array([s.size for s in shards], dtype=np.intp))
        indices = np.concatenate(shards) if shards else np.empty(0, dtype=np.intp)
        return cls(indices, offsets, num_samples)

    @property
    def sizes(self) -> np.ndarray:
        """Samples per device, shape ``(len(self),)``."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, device: int) -> np.ndarray:
        device = operator.index(device)
        if device < 0:
            device += len(self)
        if not 0 <= device < len(self):
            raise IndexError(f"device {device} out of range for {len(self)} shards")
        return self.indices[self.offsets[device] : self.offsets[device + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        bounds = self.offsets.tolist()
        return (self.indices[a:b] for a, b in zip(bounds, bounds[1:]))

    def __repr__(self) -> str:
        return f"Partition({len(self)} devices, {self.indices.size} samples)"


def _validate(dataset: ClassificationDataset, num_devices: int) -> None:
    if num_devices <= 0:
        raise ValueError(f"num_devices must be positive, got {num_devices}")
    if len(dataset) < num_devices:
        raise ValueError(
            f"cannot split {len(dataset)} samples across {num_devices} devices"
        )


def _near_equal_sizes(total: int, pieces: int) -> np.ndarray:
    """Piece lengths of ``np.array_split``: the first ``total % pieces``
    pieces are one longer."""
    sizes = np.full(pieces, total // pieces, dtype=np.intp)
    sizes[: total % pieces] += 1
    return sizes


def _offsets(sizes: np.ndarray) -> np.ndarray:
    """CSR offsets of consecutive runs of the given lengths."""
    offsets = np.zeros(sizes.size + 1, dtype=np.intp)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _group_by_owner(owner: np.ndarray, num_devices: int) -> Partition:
    """The partition in which sample ``j`` belongs to device ``owner[j]``.
    One stable sort groups the samples by device and leaves each shard
    ascending."""
    indices = np.argsort(owner, kind="stable")
    sizes = np.bincount(owner, minlength=num_devices)
    return Partition(indices, _offsets(sizes), owner.size)


def iid_partition(
    dataset: ClassificationDataset,
    num_devices: int,
    seed: int | np.random.Generator | None = 0,
) -> Partition:
    """Uniform random split into ``num_devices`` near-equal shards."""
    _validate(dataset, num_devices)
    rng = as_generator(seed)
    perm = rng.permutation(len(dataset))
    sizes = _near_equal_sizes(perm.size, num_devices)
    owner = np.empty(perm.size, dtype=np.intp)
    owner[perm] = np.repeat(np.arange(num_devices), sizes)
    return _group_by_owner(owner, num_devices)


def contiguous_partition(
    dataset: ClassificationDataset,
    num_devices: int,
    seed: int | np.random.Generator | None = 0,
) -> Partition:
    """Deal consecutive index runs: device ``i`` gets the ``i``-th
    near-equal slice of ``[0, len(dataset))`` in order.

    The million-device scheme: the partition is one ``arange`` plus
    ``num_devices + 1`` offsets (no per-device objects at all), and because
    the shards are already in fleet order
    :class:`~repro.device.fleet.DeviceFleet` skips its gather and aliases
    the dataset block — building a fleet costs no second copy of the data.
    Statistically equivalent to IID when the dataset's own order is
    unstructured (synthetic generators draw samples i.i.d.), which is what
    fleet-scale profiles use; ``seed`` is accepted for dispatch uniformity
    and never drawn from.
    """
    _validate(dataset, num_devices)
    n = len(dataset)
    sizes = _near_equal_sizes(n, num_devices)
    return Partition(np.arange(n, dtype=np.intp), _offsets(sizes), n)


def dirichlet_partition(
    dataset: ClassificationDataset,
    num_devices: int,
    beta: float,
    seed: int | np.random.Generator | None = 0,
    min_samples: int = 1,
    max_retries: int = 100,
) -> Partition:
    """Dirichlet(beta) label-skew split (the paper's Non-IID setting).

    For each class ``k`` draw device proportions ``p ~ Dir(beta, ..., beta)``
    and deal that class's samples out accordingly.  Retries (with fresh
    draws) until every device holds at least ``min_samples`` samples, the
    standard practice for this construction.

    The shards are a pure function of the rng stream, and the stream is
    part of the contract (goldens pin it): every retry, accepted or not,
    draws per non-empty class in class order ``rng.permutation(members)``
    then ``rng.dirichlet(full(num_devices, beta))``.  A retry only
    computes per-device *sizes* from the cut points; samples are assigned
    to devices once, for the draw that is kept.
    """
    _validate(dataset, num_devices)
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if min_samples * num_devices > len(dataset):
        raise ValueError("min_samples * num_devices exceeds dataset size")
    if max_retries < 1:
        raise ValueError(f"max_retries must be at least 1, got {max_retries}")
    rng = as_generator(seed)

    # Class k's members, ascending: by_class[class_starts[k]:class_starts[k+1]].
    by_class = np.argsort(dataset.y, kind="stable")
    class_starts = _offsets(dataset.class_counts())
    alpha = np.full(num_devices, beta)

    for _ in range(max_retries):
        sizes = np.zeros(num_devices, dtype=np.intp)
        dealt: list[tuple[np.ndarray, np.ndarray]] = []
        for k in range(dataset.num_classes):
            members = by_class[class_starts[k] : class_starts[k + 1]]
            if members.size == 0:
                continue
            members = rng.permutation(members)
            proportions = rng.dirichlet(alpha)
            # Cumulative cut points; the final device absorbs rounding.
            # Device d takes members[cuts[d-1]:cuts[d]] (slices clamp at
            # the end, hence the minimum).
            cuts = (np.cumsum(proportions)[:-1] * members.size).astype(np.intp)
            np.minimum(cuts, members.size, out=cuts)
            counts = np.diff(cuts, prepend=0, append=members.size)
            sizes += counts
            dealt.append((members, counts))
        if sizes.min() >= min_samples:
            break

    devices = np.arange(num_devices)
    owner = np.empty(len(dataset), dtype=np.intp)
    for members, counts in dealt:
        owner[members] = np.repeat(devices, counts)
    if sizes.min() < min_samples:
        _repair_starved(owner, sizes, min_samples)
    return _group_by_owner(owner, num_devices)


def _repair_starved(owner: np.ndarray, sizes: np.ndarray, min_samples: int) -> None:
    """Reassign samples in ``owner`` until every device has ``min_samples``.

    Extreme skew (tiny beta) can starve some device in every draw.  Repair
    the last draw instead of failing: move samples one at a time from the
    largest shard (its highest index first) to the smallest one, ties to
    the lowest device id.  This preserves conservation and barely perturbs
    the drawn distribution.  A donor stays at or above ``min_samples`` and
    a receiver at or below it, so no shard is ever both, and a donor's
    next-highest index is simply the one before its last gift.
    """
    grouped = np.argsort(owner, kind="stable")
    donor_stops = np.cumsum(sizes)
    while True:
        smallest = int(sizes.argmin())
        if sizes[smallest] >= min_samples:
            return
        largest = int(sizes.argmax())
        if sizes[largest] <= min_samples:  # pragma: no cover - guarded by
            raise RuntimeError("cannot repair partition")  # the min_samples check
        donor_stops[largest] -= 1
        owner[grouped[donor_stops[largest]]] = smallest
        sizes[largest] -= 1
        sizes[smallest] += 1


def shard_partition(
    dataset: ClassificationDataset,
    num_devices: int,
    shards_per_device: int = 2,
    seed: int | np.random.Generator | None = 0,
) -> Partition:
    """McMahan et al.'s pathological split: sort by label, deal out shards."""
    _validate(dataset, num_devices)
    if shards_per_device <= 0:
        raise ValueError("shards_per_device must be positive")
    rng = as_generator(seed)
    num_shards = num_devices * shards_per_device
    if num_shards > len(dataset):
        raise ValueError("more shards than samples")
    # Stable sort by label; ties keep dataset order.
    by_label = np.argsort(dataset.y, kind="stable")
    shard_sizes = _near_equal_sizes(by_label.size, num_shards)
    # Device d holds shards assignment[d*spd:(d+1)*spd].
    assignment = rng.permutation(num_shards)
    shard_owner = np.empty(num_shards, dtype=np.intp)
    shard_owner[assignment] = np.repeat(np.arange(num_devices), shards_per_device)
    owner = np.empty(by_label.size, dtype=np.intp)
    owner[by_label] = np.repeat(shard_owner, shard_sizes)
    return _group_by_owner(owner, num_devices)


def partition_by_name(
    name: str,
    dataset: ClassificationDataset,
    num_devices: int,
    seed: int | np.random.Generator | None = 0,
    **kwargs,
) -> Partition:
    """Dispatch on the setting names: 'iid', 'contiguous', 'dirichlet',
    'shard'.  ``kwargs`` go to the scheme's partitioner; a scheme that
    takes none rejects them rather than ignoring them."""
    name = name.lower()
    if name in ("iid", "contiguous"):
        if kwargs:
            raise TypeError(
                f"partition scheme {name!r} takes no extra arguments, "
                f"got {sorted(kwargs)}"
            )
        scheme = iid_partition if name == "iid" else contiguous_partition
        return scheme(dataset, num_devices, seed=seed)
    if name == "dirichlet":
        beta = kwargs.pop("beta", 0.3)
        return dirichlet_partition(dataset, num_devices, beta=beta, seed=seed, **kwargs)
    if name == "shard":
        return shard_partition(dataset, num_devices, seed=seed, **kwargs)
    raise ValueError(f"unknown partition scheme {name!r}")


def label_distribution(
    dataset: ClassificationDataset, parts: Partition | Sequence[np.ndarray]
) -> np.ndarray:
    """Per-device label histograms, shape (num_devices, num_classes).

    Feeds the Eq. (4) divergence metric in :mod:`repro.analysis.divergence`.
    """
    partition = Partition.of(parts, len(dataset))
    num_devices, num_classes = len(partition), dataset.num_classes
    owner = np.repeat(np.arange(num_devices), partition.sizes)
    cells = owner * num_classes + dataset.y[partition.indices]
    hist = np.bincount(cells, minlength=num_devices * num_classes)
    return hist.reshape(num_devices, num_classes).astype(np.int64, copy=False)
