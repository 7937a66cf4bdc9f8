"""Struct-of-arrays device population: O(active) memory, vectorized rounds.

A :class:`DeviceFleet` owns an entire device population as contiguous
arrays — ``unit_times``, ``num_samples``, shard index bounds over one
gathered feature/label block — instead of a list of per-device Python
objects.  Per-device *state* (the weight vector a device would upload) is
materialized lazily: an idle device costs O(1) memory, an active one costs
one row of a shared ``(participants, dim)`` weights matrix, mirroring the
flat ``Sequential.theta`` buffer one layer down.

Two storage modes, chosen by the server from the environment:

* **recycled** (``retain_history=False``, lossless channels): every round
  re-registers participant rows inside one reused arena, so peak fleet
  state is ``O(dim x max participants)`` no matter how large the
  population is.  Safe because with ``drop_prob == 0`` nothing ever reads
  a device's weights across a round boundary (every method restarts
  participants from the global model).
* **retained** (``retain_history=True``, lossy channels): a device keeps
  its last trained row until it trains again — the server's
  ``start_views`` drop-fallback may need it next round.  Memory grows
  with the set of ever-active devices, which is inherent: state someone
  may still read cannot be recycled.

Servers, the ring engine and the transports address devices by id: a
round is an intp id array, and state moves through ``weights_row``,
``set_weights`` and ``round_matrix``.  A
:class:`~repro.device.device.Device` (``fleet[i]``) is the read-only row
facade over one slot, built lazily and cached for tests, examples and
inspection — never on the round path.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.datasets.core import ClassificationDataset
from repro.datasets.partition import Partition
from repro.device.device import Device, LocalTrainer

__all__ = ["DeviceFleet", "FleetState", "make_fleet"]


class FleetState:
    """Lazily materialized per-device state rows keyed by stable device id.

    Methods with cross-round per-device state (SCAFFOLD control variates,
    FedAT tier models) store it here instead of in eagerly allocated
    dicts: a device that never participates costs nothing, and a device
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

    # Read-only mapping interface: conceptually *every* device has state
    # (default zero), so iteration spans the population while storage
    # stays O(materialized).  Consumers that held ``dict[int, ndarray]``
    # state keep working unchanged.

    def __len__(self) -> int:
        return self.num_devices

    def __getitem__(self, device_id: int) -> np.ndarray:
        return self.row(device_id)

    def keys(self):
        return range(self.num_devices)

    def values(self):
        return (self.row(i) for i in range(self.num_devices))

    def items(self):
        return ((i, self.row(i)) for i in range(self.num_devices))

    def is_materialized(self, device_id: int) -> bool:
        return device_id in self._row_of

    @property
    def materialized(self) -> int:
        """Number of devices whose row has been written."""
        return len(self._row_of)

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

        #: Lossy channels may read a device's last weights next round
        #: (``start_views`` fallback); the server clears this flag for
        #: lossless environments to enable arena recycling.
        self.retain_history = True

        # Lazily materialized per-device weight rows.  ``_views[i]`` is the
        # standalone (dim,) row a device owns, or None (idle: O(1) cost).
        # Devices registered in the current round arena are tracked in
        # ``_arena_row`` (id -> arena row) instead; their views are built
        # on demand so registering a round costs one dict, not p view
        # objects.  Arena registration wins over a stale standalone row.
        self._views: list[np.ndarray | None] = [None] * n
        self._has_standalone = False
        self._arena: np.ndarray | None = None  # recycled round matrix
        self._arena_row: dict[int, int] = {}
        self._arena_reg_ids: np.ndarray | None = None
        self._facades: list[Device | None] = [None] * n
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

    def __getitem__(self, device_id: int) -> Device:
        return self.device(device_id)

    def __iter__(self):
        # Materializes every facade — fine for small fleets and tests;
        # fleet-scale callers should work with id arrays instead.
        return (self.device(i) for i in range(self.num_devices))

    def device(self, device_id: int) -> Device:
        """The (cached) row-view facade for one device; a negative index
        counts from the end of the population."""
        device_id = int(device_id)
        if device_id < 0:
            device_id += self.num_devices
        if not 0 <= device_id < self.num_devices:
            raise IndexError(
                f"device index out of range for a population of "
                f"{self.num_devices}"
            )
        facade = self._facades[device_id]
        if facade is None:
            facade = Device(self, device_id)
            self._facades[device_id] = facade
        return facade

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
        """Zero-copy view of the device's current weights (None if idle)."""
        row = self._arena_row.get(device_id)
        if row is not None:
            return self._arena[row]
        return self._views[device_id]

    def set_weights(self, device_id: int, values: np.ndarray) -> None:
        """Copy ``values`` into the device's row, materializing it if idle.

        Writing the row the device already owns (e.g. training with
        ``out=`` straight into its round-matrix row) is a no-op.
        """
        row = self._arena_row.get(device_id)
        if row is not None:
            view = self._arena[row]
        else:
            view = self._views[device_id]
            if view is None:
                view = np.empty(self.dim)
                self._views[device_id] = view
                self._has_standalone = True
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
        population size.  Only valid with ``retain_history`` off: the
        rows are registered *before* they are written, which is safe
        exactly when no cross-round reader exists (lossless channels —
        see the class docstring).  Lossy environments must instead write
        through :meth:`set_weights`, which snapshots values into retained
        per-device rows.
        """
        if self.retain_history:
            raise RuntimeError(
                "round_matrix requires retain_history=False; a lossy "
                "environment may still read last-round weights, so rows "
                "cannot be recycled"
            )
        ids = np.asarray(ids, dtype=np.intp)
        p = len(ids)
        if self._arena is None or self._arena.shape[0] < p:
            self._arena = np.empty((p, self.dim))
        block = self._arena[:p]
        id_list = ids.tolist()
        # One dict replaces p registered view objects; previous arena
        # registrations vanish with the old dict (recycled rows hold no
        # readable state across rounds by construction).
        self._arena_row = dict(zip(id_list, range(p)))
        self._arena_reg_ids = ids
        if self._has_standalone:
            # A standalone row must not shadow the new arena registration
            # once the arena moves on — recycled history is gone either way.
            for i in id_list:
                self._views[i] = None
        return block

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
        """Devices currently holding a weight row."""
        standalone = sum(
            1 for i, v in enumerate(self._views)
            if v is not None and i not in self._arena_row
        )
        return standalone + len(self._arena_row)

    @property
    def state_nbytes(self) -> int:
        """Bytes of weight state held by the fleet (arena + retained rows).

        Counts each backing allocation once — many views share one round
        block — which is what "peak fleet state memory" means in the perf
        suite.
        """
        seen: set[int] = set()
        total = 0
        if self._arena is not None:
            seen.add(id(self._arena))
            total += self._arena.nbytes
        for view in self._views:
            if view is None:
                continue
            base = view.base if view.base is not None else view
            if id(base) not in seen:
                seen.add(id(base))
                total += base.nbytes
        return total


def make_fleet(
    dataset: ClassificationDataset,
    parts: Partition | Sequence[np.ndarray],
    unit_times: np.ndarray,
    trainer: LocalTrainer,
    name: str | None = None,
) -> DeviceFleet:
    """Assemble the device population — the one way to build one."""
    return DeviceFleet(dataset, parts, unit_times, trainer, name=name)
