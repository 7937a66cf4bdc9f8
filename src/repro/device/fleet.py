"""Struct-of-arrays device population: O(participants) memory, vectorized rounds.

A :class:`DeviceFleet` owns an entire device population as contiguous
arrays — ``unit_times``, ``num_samples``, shard index bounds over one
gathered feature/label block — instead of a list of per-device Python
objects.  Per-device *state* (the weight vector a device would upload)
lives in one place: the round arena, a reused ``(participants, dim)``
matrix that :meth:`DeviceFleet.round_matrix` registers each round.  A
registered device's row is a view into it; every other device has no
row, so peak fleet state is ``O(dim x max participants)`` however large
the population is, mirroring the flat ``Sequential.theta`` buffer one
layer down.  Registering a round invalidates the previous one, so
nothing here survives a round boundary: cross-round per-device state
lives with the code that reads it (SCAFFOLD's variates in a
:class:`FleetState`, FedAT's per-tier models, the drop-fallback rows in
the server's ``device_history``).

A device *is* its id: a round is an intp id array, per-device
attributes are array entries (``unit_times[i]``, ``num_samples[i]``),
data is ``shard(i)`` and state moves through ``round_matrix``,
``weights_row`` and ``set_weights``.  There is no per-device object.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.datasets.core import ClassificationDataset
from repro.datasets.partition import Partition
from repro.device.device import LocalTrainer

__all__ = ["DeviceFleet", "FleetState", "make_fleet"]


class FleetState:
    """Lazily materialized per-device state rows keyed by stable device id.

    Methods with cross-round per-device state (SCAFFOLD's control
    variates) store it here instead of in eagerly allocated dicts: a device that never participates costs nothing, and a device
    that is deselected and later reselected finds its row untouched —
    state is keyed by device id, never by a per-round position.

    Reads of an unmaterialized row return one shared read-only zeros
    vector (the natural initial value for every current use), so the
    read path allocates nothing.
    """

    def __init__(self, num_devices: int, dim: int) -> None:
        if num_devices <= 0:
            raise ValueError(f"num_devices must be positive, got {num_devices}")
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.num_devices = int(num_devices)
        self.dim = int(dim)
        self._zeros = np.zeros(dim)
        self._zeros.flags.writeable = False
        self._pool = np.empty((0, dim))
        self._row_of: dict[int, int] = {}

    @property
    def nbytes(self) -> int:
        """Bytes held by materialized rows (pool capacity, not count)."""
        return self._pool.nbytes

    def row(self, device_id: int) -> np.ndarray:
        """This device's state row — the shared zeros if never written."""
        idx = self._row_of.get(device_id)
        if idx is None:
            return self._zeros
        return self._pool[idx]

    def materialize(self, device_id: int) -> np.ndarray:
        """A writable row for ``device_id`` (zero-filled on first use)."""
        idx = self._row_of.get(device_id)
        if idx is None:
            idx = len(self._row_of)
            if idx >= self._pool.shape[0]:
                grown = np.empty((max(4, 2 * self._pool.shape[0]), self.dim))
                grown[: self._pool.shape[0]] = self._pool
                self._pool = grown
            self._pool[idx] = 0.0
            self._row_of[device_id] = idx
        return self._pool[idx]

    def set(self, device_id: int, values: np.ndarray) -> None:
        """Copy ``values`` into the device's (materialized) row."""
        np.copyto(self.materialize(device_id), values)


class DeviceFleet:
    """The device population as contiguous struct-of-arrays storage.

    Parameters
    ----------
    dataset:
        The training split; its samples are gathered **once** into fleet
        order so every device shard is a zero-copy slice
        ``x[start_i:stop_i]`` instead of a per-device fancy-index copy.
    parts:
        The :class:`~repro.datasets.partition.Partition` of ``dataset``
        (or any sequence of per-device index arrays, normalised to one).
    unit_times:
        Per-device virtual time per local-training unit.
    trainer:
        The shared :class:`~repro.device.device.LocalTrainer`.
    """

    def __init__(
        self,
        dataset: ClassificationDataset,
        parts: Partition | Sequence[np.ndarray],
        unit_times: np.ndarray,
        trainer: LocalTrainer,
        name: str | None = None,
    ) -> None:
        partition = Partition.of(parts, len(dataset))
        n = len(partition)
        if n != len(unit_times):
            raise ValueError(
                f"parts ({n}) and unit_times ({len(unit_times)}) disagree"
            )
        if not n:
            raise ValueError("need at least one device")
        lengths = partition.sizes
        empty = np.flatnonzero(lengths == 0)
        if empty.size:
            raise ValueError(f"device {int(empty[0])} has an empty shard")
        unit_times = np.ascontiguousarray(unit_times, dtype=np.float64)
        if np.any(unit_times <= 0):
            bad = int(np.flatnonzero(unit_times <= 0)[0])
            raise ValueError(
                f"unit_time must be positive, got {unit_times[bad]}"
            )

        # One gather into fleet order; per-device shards are slices of it.
        # A partition that is already in fleet order (the ``contiguous``
        # scheme million-device profiles use) skips the gather entirely:
        # the fleet aliases the dataset's block, so building the fleet
        # costs O(devices) index arrays, never a second copy of the data.
        order = partition.indices
        if order.size == len(dataset) and np.array_equal(
            order, np.arange(order.size, dtype=np.intp)
        ):
            self.x = dataset.x
            self.y = dataset.y
        else:
            self.x = dataset.x[order]
            self.y = dataset.y[order]
        self.num_classes = dataset.num_classes
        self.name = name if name is not None else dataset.name

        self.num_devices = n
        self.device_ids = np.arange(n, dtype=np.intp)
        self.unit_times = unit_times
        self.num_samples = lengths
        self.shard_stops = np.cumsum(lengths)
        self.shard_starts = self.shard_stops - lengths

        self.trainer = trainer
        self.dim = trainer.dim

        # The round arena and its registration: ``_arena_row`` maps id ->
        # arena row, and views are built on demand, so registering a round
        # costs one dict, not p view objects.  Unregistered devices (idle
        # or from an earlier round) hold no row: O(1) cost.
        self._arena: np.ndarray | None = None  # recycled round matrix
        self._arena_row: dict[int, int] = {}
        self._arena_reg_ids: np.ndarray | None = None
        self._shards: list[ClassificationDataset | None] = [None] * n

    @classmethod
    def require(cls, devices) -> DeviceFleet:
        """``devices`` if it is a fleet — the one boundary check of
        everything that takes a population (servers, the ring engine)."""
        if not isinstance(devices, cls):
            raise TypeError(
                f"devices must be a DeviceFleet, got {type(devices).__name__}; "
                "build the population with repro.device.make_fleet"
            )
        return devices

    # ------------------------------------------------------ population API

    def __len__(self) -> int:
        return self.num_devices

    def shard(self, device_id: int) -> ClassificationDataset:
        """Device shard as a zero-copy slice of the fleet block (cached)."""
        shard = self._shards[device_id]
        if shard is None:
            start = self.shard_starts[device_id]
            stop = self.shard_stops[device_id]
            shard = ClassificationDataset(
                self.x[start:stop],
                self.y[start:stop],
                self.num_classes,
                name=f"{self.name}/dev{device_id}",
            )
            self._shards[device_id] = shard
        return shard

    # --------------------------------------------------------- weight rows

    def weights_row(self, device_id: int) -> np.ndarray | None:
        """Zero-copy view of the device's row in the current round arena
        (None if the device is not registered)."""
        row = self._arena_row.get(device_id)
        return None if row is None else self._arena[row]

    def set_weights(self, device_id: int, values: np.ndarray) -> None:
        """Copy ``values`` into the device's registered arena row.

        Writing the row the device already owns (e.g. training with
        ``out=`` straight into its round-matrix row) is a no-op; a device
        outside the registered round has no row to write.
        """
        view = self.weights_row(device_id)
        if view is None:
            raise ValueError(
                f"device {device_id} is not in the registered round; "
                "register the round's ids with round_matrix first"
            )
        if values is view or (
            isinstance(values, np.ndarray)
            and values.ndim == 1
            and values.ctypes.data == view.ctypes.data
        ):
            return
        np.copyto(view, values)

    def round_matrix(self, ids: np.ndarray) -> np.ndarray:
        """Contiguous ``(len(ids), dim)`` matrix whose rows become the
        given devices' weight rows for this round.

        The matrix is one reused arena (grown only when the participant
        count does) and every previous registration is invalidated first,
        so peak fleet state stays O(dim x participants) regardless of
        population size.  The rows are registered *before* they are
        written; a caller that needs a device's weights across a round
        boundary keeps its own copy.
        """
        ids = np.asarray(ids, dtype=np.intp)
        p = len(ids)
        if self._arena is None or self._arena.shape[0] < p:
            self._arena = np.empty((p, self.dim))
        self._arena_row = dict(zip(ids.tolist(), range(p)))
        self._arena_reg_ids = ids
        return self._arena[:p]

    def stack_weights(self, ids: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Stacked weights of the given devices (aggregation input).

        When ``ids`` is exactly the registered round (same order), the
        arena block *is* that stack, so the read-only aggregation
        consumers get it back without a (p, dim) copy.  Any other id
        set gathers into a fresh (or provided) matrix.
        """
        ids = np.asarray(ids, dtype=np.intp)
        if (
            out is None
            and self._arena_reg_ids is not None
            and len(ids) == len(self._arena_reg_ids)
            and np.array_equal(ids, self._arena_reg_ids)
        ):
            return self._arena[: len(ids)]
        if out is None:
            out = np.empty((len(ids), self.dim))
        for row, i in enumerate(ids.tolist()):
            view = self.weights_row(i)
            if view is None:
                raise ValueError(f"device {i} has no weights to stack")
            np.copyto(out[row], view)
        return out

    # ------------------------------------------------------------- metrics

    @property
    def materialized_rows(self) -> int:
        """Devices currently holding a weight row (the registered round)."""
        return len(self._arena_row)

    @property
    def state_nbytes(self) -> int:
        """Bytes of weight state held by the fleet: the round arena."""
        return 0 if self._arena is None else self._arena.nbytes


def make_fleet(
    dataset: ClassificationDataset,
    parts: Partition | Sequence[np.ndarray],
    unit_times: np.ndarray,
    trainer: LocalTrainer,
    name: str | None = None,
) -> DeviceFleet:
    """Assemble the device population — the one way to build one."""
    return DeviceFleet(dataset, parts, unit_times, trainer, name=name)
