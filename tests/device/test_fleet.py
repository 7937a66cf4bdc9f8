"""Tests for repro.device.fleet: DeviceFleet and FleetState."""

import numpy as np
import pytest

from repro.datasets.core import ClassificationDataset
from repro.datasets.partition import dirichlet_partition
from repro.device import (
    DeviceFleet,
    FleetState,
    make_fleet,
    unit_times_from_counts,
)
from repro.device.batched import run_units
from repro.nn.serialization import get_flat_params
from repro.simulation.engine import RingRoundEngine


def _parts(train_set):
    return dirichlet_partition(train_set, 8, beta=0.5, seed=5, min_samples=2)


class TestConstruction:
    def test_shards_match_per_device_subsets(self, tiny_split, tiny_trainer):
        """One gathered block slices into exactly the per-device copies."""
        train_set, _ = tiny_split
        parts = _parts(train_set)
        times = unit_times_from_counts(np.array([1, 2, 4, 1, 2, 4, 1, 2]))
        fleet = make_fleet(train_set, parts, times, tiny_trainer)
        for i, idx in enumerate(parts):
            copy = train_set.subset(idx, name=f"{train_set.name}/dev{i}")
            shard = fleet.shard(i)
            np.testing.assert_array_equal(shard.x, copy.x)
            np.testing.assert_array_equal(shard.y, copy.y)
            assert shard.name == copy.name
            assert fleet.num_samples[i] == len(copy)
            assert fleet.unit_times[i] == times[i]
        np.testing.assert_array_equal(fleet.num_samples, [len(p) for p in parts])
        np.testing.assert_array_equal(fleet.unit_times, times)

    def test_shards_are_views_and_cached(self, tiny_fleet):
        shard = tiny_fleet.shard(3)
        assert shard.x.base is tiny_fleet.x
        assert tiny_fleet.shard(3) is shard

    def test_length_mismatch_raises(self, tiny_split, tiny_trainer):
        train_set, _ = tiny_split
        with pytest.raises(ValueError, match="disagree"):
            make_fleet(train_set, _parts(train_set), np.ones(3), tiny_trainer)

    def test_empty_shard_raises(self, tiny_split, tiny_trainer):
        train_set, _ = tiny_split
        parts = [np.arange(4), np.empty(0, dtype=np.intp)]
        with pytest.raises(ValueError, match="empty shard"):
            make_fleet(train_set, parts, np.ones(2), tiny_trainer)

    def test_out_of_range_index_raises(self, tiny_split, tiny_trainer):
        """-1 must not silently wrap to the last sample."""
        train_set, _ = tiny_split
        for bad in (-1, len(train_set)):
            parts = [np.arange(4), np.array([4, bad, 6])]
            with pytest.raises(ValueError, match="indices must lie in"):
                make_fleet(train_set, parts, np.ones(2), tiny_trainer)

    def test_partition_and_equivalent_list_agree(self, tiny_split, tiny_trainer):
        train_set, _ = tiny_split
        parts = _parts(train_set)
        times = unit_times_from_counts(np.array([1, 2, 4, 1, 2, 4, 1, 2]))
        from_csr = make_fleet(train_set, parts, times, tiny_trainer)
        from_list = make_fleet(train_set, list(parts), times, tiny_trainer)
        for attr in ("x", "y", "shard_starts", "shard_stops", "num_samples"):
            np.testing.assert_array_equal(
                getattr(from_csr, attr), getattr(from_list, attr), err_msg=attr
            )
        np.testing.assert_array_equal(from_csr.num_samples, parts.sizes)

    def test_nonpositive_unit_time_raises(self, tiny_split, tiny_trainer):
        train_set, _ = tiny_split
        parts = [np.arange(4), np.arange(4, 8)]
        with pytest.raises(ValueError, match="unit_time"):
            make_fleet(train_set, parts, np.array([1.0, 0.0]), tiny_trainer)


class TestLazyMaterialization:
    def test_idle_devices_cost_nothing(self, tiny_fleet):
        assert tiny_fleet.materialized_rows == 0
        assert tiny_fleet.state_nbytes == 0
        assert tiny_fleet.weights_row(0) is None

    def test_facades_cached_and_lazy(self, tiny_fleet):
        """The one per-device view, the shard, is built on first read
        and cached; the rest of the population builds nothing."""
        assert all(s is None for s in tiny_fleet._shards)
        shard = tiny_fleet.shard(2)
        assert tiny_fleet.shard(2) is shard
        assert sum(1 for s in tiny_fleet._shards if s is not None) == 1

    def test_set_weights_writes_the_registered_row(self, tiny_fleet):
        dim = tiny_fleet.dim
        tiny_fleet.round_matrix([5])
        tiny_fleet.set_weights(5, np.arange(dim, dtype=np.float64))
        assert tiny_fleet.materialized_rows == 1
        np.testing.assert_array_equal(tiny_fleet.weights_row(5), np.arange(dim))
        assert tiny_fleet.state_nbytes == dim * 8

    def test_set_weights_outside_the_round_raises(self, tiny_fleet):
        """No round, no row: writing one never allocates behind the arena."""
        with pytest.raises(ValueError, match="not in the registered round"):
            tiny_fleet.set_weights(5, np.zeros(tiny_fleet.dim))
        tiny_fleet.round_matrix([1, 2])
        with pytest.raises(ValueError, match="round_matrix"):
            tiny_fleet.set_weights(5, np.zeros(tiny_fleet.dim))
        assert tiny_fleet.state_nbytes == 2 * tiny_fleet.dim * 8


class TestTrainingThroughTheFleet:
    def test_run_units_matches_training_a_shard_copy(self, tiny_split, tiny_trainer):
        """A device trains bit-for-bit like the trainer on its own copy of
        its samples, on the (device, round, unit) stream, and ``sync``
        snapshots the result into its row."""
        train_set, _ = tiny_split
        parts = _parts(train_set)
        times = unit_times_from_counts(np.array([1, 2, 4, 1, 2, 4, 1, 2]))
        fleet = make_fleet(train_set, parts, times, tiny_trainer)
        w0 = get_flat_params(tiny_trainer.model)
        out = np.empty((1, fleet.dim))
        fleet.round_matrix([3])
        run_units(None, fleet, [3], 2, 1, w0, out, sync=True)
        out_copy, _ = tiny_trainer.train(
            w0, train_set.subset(parts[3]), 2, stream_key=(3, 1, 0)
        )
        np.testing.assert_array_equal(out[0], out_copy)
        np.testing.assert_array_equal(fleet.weights_row(3), out_copy)
        assert not np.shares_memory(fleet.weights_row(3), out)

    def test_registered_row_needs_no_sync(self, tiny_fleet, tiny_trainer):
        w0 = get_flat_params(tiny_trainer.model)
        rows = tiny_fleet.round_matrix([3])
        run_units(None, tiny_fleet, [3], 1, 0, w0, rows)
        assert np.shares_memory(tiny_fleet.weights_row(3), rows)
        assert not np.array_equal(rows[0], w0)


class TestMutationSafety:
    """The weight-ownership rule (DESIGN §10.1): writing a row snapshots,
    training and the ring engine's inbox only borrow."""

    def test_fleet_weights_survive_caller_mutation(self, tiny_fleet):
        dim = tiny_fleet.dim
        global_weights = np.ones(dim)
        tiny_fleet.round_matrix([0])
        tiny_fleet.set_weights(0, global_weights)
        global_weights *= 1e9  # server misbehaves after handing over
        np.testing.assert_array_equal(tiny_fleet.weights_row(0), np.ones(dim))

    def test_borrowed_starts_are_never_mutated(self, tiny_fleet, tiny_trainer):
        """Neither a training wave nor a ring round writes into the start
        vector it was handed."""
        w0 = get_flat_params(tiny_trainer.model)
        keep = w0.copy()
        tiny_fleet.round_matrix(tiny_fleet.device_ids)
        run_units(None, tiny_fleet, [2], 1, 0, w0, np.empty((1, tiny_fleet.dim)))
        RingRoundEngine(tiny_fleet, epochs_per_unit=1).run_round(
            [tiny_fleet.device_ids.tolist()], w0, duration=4.0
        )
        np.testing.assert_array_equal(w0, keep)


class TestRoundMatrix:
    def test_rows_are_registered_views(self, tiny_fleet):
        rows = tiny_fleet.round_matrix([4, 1])
        rows[0] = 7.0
        rows[1] = 9.0
        np.testing.assert_array_equal(tiny_fleet.weights_row(4), rows[0])
        np.testing.assert_array_equal(tiny_fleet.weights_row(1), rows[1])
        assert tiny_fleet.weights_row(0) is None

    def test_arena_recycles_and_bounds_memory(self, tiny_fleet):
        dim = tiny_fleet.dim
        tiny_fleet.round_matrix([0, 1, 2])
        first = tiny_fleet.state_nbytes
        assert first == 3 * dim * 8
        tiny_fleet.round_matrix([3, 4])  # smaller round reuses the arena
        assert tiny_fleet.state_nbytes == first
        assert tiny_fleet.weights_row(0) is None  # recycled away
        assert tiny_fleet.materialized_rows == 2

    def test_reregistration_forgets_the_previous_round(self, tiny_fleet):
        """A device left out of the new round has no row, even where the
        arena row it used survives for someone else."""
        rows = tiny_fleet.round_matrix([2])
        rows[0] = 5.0
        np.testing.assert_array_equal(tiny_fleet.weights_row(2), rows[0])
        tiny_fleet.round_matrix([3])
        assert tiny_fleet.weights_row(2) is None  # not the stale 5.0
        with pytest.raises(ValueError, match="device 2"):
            tiny_fleet.set_weights(2, np.zeros(tiny_fleet.dim))

    def test_stack_weights_zero_copy_for_registered_round(self, tiny_fleet):
        rows = tiny_fleet.round_matrix([2, 6, 4])
        rows[:] = 3.0
        stacked = tiny_fleet.stack_weights([2, 6, 4])
        assert np.shares_memory(stacked, tiny_fleet._arena)
        np.testing.assert_array_equal(stacked, rows)

    def test_stack_weights(self, tiny_fleet):
        rows = tiny_fleet.round_matrix([1, 5])
        rows[0] = 1.0
        rows[1] = 2.0
        stacked = tiny_fleet.stack_weights([5, 1])
        np.testing.assert_array_equal(stacked[0], rows[1])
        np.testing.assert_array_equal(stacked[1], rows[0])
        with pytest.raises(ValueError, match="no weights"):
            tiny_fleet.stack_weights([0])


class TestFleetState:
    def test_reads_default_to_shared_zeros(self):
        state = FleetState(10, 4)
        row = state.row(7)
        np.testing.assert_array_equal(row, 0.0)
        assert not row.flags.writeable  # accidental writes raise
        assert state.row(3) is row  # one shared vector, nothing allocated
        assert state.nbytes == 0

    def test_set_and_rekey_by_device_id(self):
        state = FleetState(10, 4)
        state.set(7, np.arange(4.0))
        state.set(2, np.full(4, 5.0))
        assert state.row(7).flags.writeable and state.row(2).flags.writeable
        assert not state.row(3).flags.writeable  # never written: shared zeros
        assert state.nbytes == 4 * 4 * 8  # the pool's first growth: 4 rows
        np.testing.assert_array_equal(state.row(7), np.arange(4.0))
        np.testing.assert_array_equal(state.row(2), np.full(4, 5.0))
        # Pool growth must not invalidate values.
        for i in (0, 1, 3, 4, 5, 6, 8, 9):
            state.set(i, np.full(4, float(i)))
        np.testing.assert_array_equal(state.row(7), np.arange(4.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetState(0, 4)
        with pytest.raises(ValueError):
            FleetState(4, 0)


class TestPopulationProtocol:
    def test_len_iter_getitem(self, tiny_fleet):
        """``len`` is the population size; devices are ids, so the fleet
        is neither iterable nor indexable."""
        assert len(tiny_fleet) == tiny_fleet.num_devices == 8
        assert tiny_fleet.device_ids.tolist() == list(range(8))
        with pytest.raises(TypeError):
            iter(tiny_fleet)
        with pytest.raises(TypeError):
            tiny_fleet[0]

    def test_make_fleet_returns_device_fleet(self, tiny_fleet):
        assert isinstance(tiny_fleet, DeviceFleet)


class TestSharedZeroDataset:
    def test_num_classes_and_name_carried(self, tiny_split, tiny_trainer):
        train_set, _ = tiny_split
        fleet = make_fleet(
            train_set, _parts(train_set), np.ones(8), tiny_trainer, name="pop"
        )
        shard = fleet.shard(0)
        assert isinstance(shard, ClassificationDataset)
        assert shard.num_classes == train_set.num_classes
        assert shard.name == "pop/dev0"


class TestContiguousAlias:
    def test_fleet_aliases_dataset_block(self, tiny_split, tiny_trainer):
        """A fleet-order partition skips the gather: the fleet's data IS
        the dataset's block, not a copy — the million-device memory path."""
        from repro.datasets.partition import contiguous_partition

        train_set, _ = tiny_split
        parts = contiguous_partition(train_set, 8)
        fleet = make_fleet(
            train_set, parts, unit_times_from_counts(np.ones(8)), tiny_trainer
        )
        assert fleet.x is train_set.x
        assert fleet.y is train_set.y
        as_list = make_fleet(
            train_set, list(parts), unit_times_from_counts(np.ones(8)), tiny_trainer
        )
        assert as_list.x is train_set.x
        # Shards are still correct zero-copy slices.
        for dev in range(8):
            shard = fleet.shard(dev)
            np.testing.assert_array_equal(shard.x, train_set.x[parts[dev]])
            assert shard.x.base is train_set.x

    def test_shuffled_partition_still_gathers(self, tiny_split, tiny_trainer):
        from repro.datasets.partition import iid_partition

        train_set, _ = tiny_split
        parts = iid_partition(train_set, 8, seed=0)
        fleet = make_fleet(
            train_set, parts, unit_times_from_counts(np.ones(8)), tiny_trainer
        )
        assert fleet.x is not train_set.x
        np.testing.assert_array_equal(fleet.x, train_set.x[np.concatenate(parts)])
