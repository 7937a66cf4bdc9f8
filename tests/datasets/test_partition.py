"""Partition tests including the hypothesis conservation property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.core import ClassificationDataset
from repro.datasets.partition import (
    Partition,
    contiguous_partition,
    dirichlet_partition,
    iid_partition,
    label_distribution,
    partition_by_name,
    shard_partition,
)


def make_ds(n=200, classes=5, seed=0):
    rng = np.random.default_rng(seed)
    return ClassificationDataset(
        rng.normal(size=(n, 3)), rng.integers(0, classes, size=n), classes
    )


def assert_conservation(parts, n):
    """Disjoint index sets whose union is range(n)."""
    allidx = np.concatenate([p for p in parts])
    assert len(allidx) == n
    assert len(np.unique(allidx)) == n
    assert allidx.min() == 0 and allidx.max() == n - 1


class TestIIDPartition:
    def test_conservation(self):
        ds = make_ds()
        assert_conservation(iid_partition(ds, 7, seed=0), len(ds))

    def test_near_equal_sizes(self):
        parts = iid_partition(make_ds(n=100), 7, seed=0)
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        ds = make_ds()
        a = iid_partition(ds, 5, seed=3)
        b = iid_partition(ds, 5, seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_too_many_devices_raises(self):
        with pytest.raises(ValueError):
            iid_partition(make_ds(n=5), 6)

    def test_zero_devices_raises(self):
        with pytest.raises(ValueError):
            iid_partition(make_ds(), 0)


class TestDirichletPartition:
    def test_conservation(self):
        ds = make_ds()
        parts = dirichlet_partition(ds, 8, beta=0.3, seed=0)
        assert_conservation(parts, len(ds))

    def test_min_samples_respected(self):
        ds = make_ds(n=400)
        parts = dirichlet_partition(ds, 10, beta=0.3, seed=0, min_samples=5)
        assert min(p.size for p in parts) >= 5

    def test_smaller_beta_more_skew(self):
        """Lower beta concentrates labels: mean max-class share increases."""
        ds = make_ds(n=2000, classes=10, seed=1)

        def mean_max_share(beta):
            parts = dirichlet_partition(ds, 20, beta=beta, seed=2)
            hist = label_distribution(ds, parts).astype(float)
            return (hist.max(axis=1) / hist.sum(axis=1)).mean()

        assert mean_max_share(0.1) > mean_max_share(1.0) > mean_max_share(100.0)

    def test_beta_zero_raises(self):
        with pytest.raises(ValueError):
            dirichlet_partition(make_ds(), 4, beta=0.0)

    def test_impossible_min_samples_raises(self):
        with pytest.raises(ValueError):
            dirichlet_partition(make_ds(n=20), 10, beta=0.3, min_samples=5)

    def test_deterministic(self):
        ds = make_ds()
        a = dirichlet_partition(ds, 6, beta=0.5, seed=9)
        b = dirichlet_partition(ds, 6, beta=0.5, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    @given(
        num_devices=st.integers(min_value=2, max_value=12),
        beta=st.floats(min_value=0.05, max_value=10.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_conservation(self, num_devices, beta, seed):
        ds = make_ds(n=150, classes=4, seed=0)
        parts = dirichlet_partition(ds, num_devices, beta=beta, seed=seed)
        assert_conservation(parts, len(ds))


class TestShardPartition:
    def test_conservation(self):
        ds = make_ds(n=120)
        parts = shard_partition(ds, 6, shards_per_device=2, seed=0)
        assert_conservation(parts, len(ds))

    def test_pathological_label_concentration(self):
        """2 shards/device over sorted labels -> each device sees <= 3 classes."""
        ds = make_ds(n=500, classes=10, seed=3)
        parts = shard_partition(ds, 10, shards_per_device=2, seed=0)
        hist = label_distribution(ds, parts)
        classes_per_device = (hist > 0).sum(axis=1)
        assert classes_per_device.max() <= 4

    def test_more_shards_than_samples_raises(self):
        with pytest.raises(ValueError):
            shard_partition(make_ds(n=10), 6, shards_per_device=2)


class TestPartitionByName:
    def test_dispatch_iid(self):
        parts = partition_by_name("iid", make_ds(), 4, seed=0)
        assert len(parts) == 4

    def test_dispatch_dirichlet_beta(self):
        parts = partition_by_name("dirichlet", make_ds(), 4, seed=0, beta=0.5)
        assert len(parts) == 4

    def test_dispatch_shard(self):
        parts = partition_by_name("shard", make_ds(n=100), 4, seed=0)
        assert len(parts) == 4

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            partition_by_name("zipf", make_ds(), 4)

    def test_case_insensitive(self):
        assert len(partition_by_name("IID", make_ds(), 3, seed=0)) == 3

    @pytest.mark.parametrize("name", ["iid", "contiguous"])
    def test_unused_arguments_rejected(self, name):
        """beta means nothing to these schemes: refuse it, don't drop it."""
        with pytest.raises(TypeError, match=f"{name}.*beta"):
            partition_by_name(name, make_ds(), 4, seed=0, beta=0.3)

    def test_unknown_dirichlet_argument_rejected(self):
        with pytest.raises(TypeError):
            partition_by_name("dirichlet", make_ds(), 4, seed=0, shards_per_device=2)


class TestLabelDistribution:
    def test_shape_and_totals(self):
        ds = make_ds(n=90, classes=3)
        parts = iid_partition(ds, 3, seed=0)
        hist = label_distribution(ds, parts)
        assert hist.shape == (3, 3)
        assert hist.sum() == 90

    def test_empty_part_is_zero_row(self):
        ds = make_ds(n=20, classes=2)
        hist = label_distribution(ds, [np.arange(20), np.empty(0, dtype=np.intp)])
        assert hist[1].sum() == 0

    def test_matches_per_device_bincount(self):
        ds = make_ds(n=300, classes=7)
        parts = dirichlet_partition(ds, 9, beta=0.2, seed=1)
        want = np.stack([np.bincount(ds.y[idx], minlength=7) for idx in parts])
        for given in (parts, list(parts)):
            hist = label_distribution(ds, given)
            assert hist.dtype == np.int64
            np.testing.assert_array_equal(hist, want)


class TestContiguousPartition:
    def test_conservation_and_order(self):
        ds = make_ds(101)
        parts = contiguous_partition(ds, 7)
        assert_conservation(parts, 101)
        # Shards are consecutive runs in dataset order.
        assert all(np.array_equal(p, np.arange(p[0], p[-1] + 1)) for p in parts)
        assert np.array_equal(np.concatenate(parts), np.arange(101))

    def test_near_equal_sizes(self):
        ds = make_ds(100)
        sizes = [len(p) for p in contiguous_partition(ds, 8)]
        assert max(sizes) - min(sizes) <= 1

    def test_dispatch_by_name(self):
        ds = make_ds(60)
        parts = partition_by_name("contiguous", ds, 6, seed=5)
        assert_conservation(parts, 60)

    def test_validation(self):
        ds = make_ds(5)
        with pytest.raises(ValueError):
            contiguous_partition(ds, 6)
        with pytest.raises(ValueError):
            contiguous_partition(ds, 0)


SCHEMES = {
    "iid": lambda ds, n, seed: iid_partition(ds, n, seed=seed),
    "dirichlet": lambda ds, n, seed: dirichlet_partition(ds, n, beta=0.3, seed=seed),
    "shard": lambda ds, n, seed: shard_partition(ds, n, seed=seed),
    "contiguous": lambda ds, n, seed: contiguous_partition(ds, n, seed=seed),
}


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
class TestPartitionContainer:
    """Every scheme returns the CSR container, and the container keeps the
    list-of-index-arrays behaviour callers rely on."""

    def test_csr_conservation(self, scheme):
        ds = make_ds(n=203)
        parts = SCHEMES[scheme](ds, 9, 4)
        assert isinstance(parts, Partition)
        assert parts.indices.dtype == parts.offsets.dtype == np.intp
        assert parts.offsets.shape == (10,)
        np.testing.assert_array_equal(np.sort(parts.indices), np.arange(203))
        np.testing.assert_array_equal(parts.sizes, [p.size for p in parts])
        assert parts.sizes.min() >= 1
        assert all(np.all(np.diff(p) > 0) for p in parts)  # shards ascending

    def test_deterministic(self, scheme):
        ds = make_ds(n=203)
        a, b = SCHEMES[scheme](ds, 9, 4), SCHEMES[scheme](ds, 9, 4)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.offsets, b.offsets)

    def test_sequence_behaviour(self, scheme):
        parts = SCHEMES[scheme](make_ds(n=203), 9, 4)
        assert len(parts) == 9
        for dev, shard in enumerate(parts):
            np.testing.assert_array_equal(parts[dev], shard)
            assert np.shares_memory(parts[dev], parts.indices)  # a view
        np.testing.assert_array_equal(parts[-1], parts[8])
        np.testing.assert_array_equal(parts[np.intp(2)], parts[2])
        np.testing.assert_array_equal(np.concatenate(parts), parts.indices)
        for bad in (9, -10):
            with pytest.raises(IndexError):
                parts[bad]


class TestPartitionValidation:
    def test_hand_built(self):
        parts = Partition([4, 0, 2, 1], [0, 1, 1, 4], num_samples=5)
        assert [p.tolist() for p in parts] == [[4], [], [0, 2, 1]]
        assert parts.sizes.tolist() == [1, 0, 3]

    def test_from_sequence_of_arrays(self):
        parts = Partition.of([[3, 1], np.array([0]), []], 4)
        assert parts.indices.tolist() == [3, 1, 0]
        assert parts.offsets.tolist() == [0, 2, 3, 3]
        assert Partition.of(parts, 4) is parts

    @pytest.mark.parametrize(
        "indices,offsets,match",
        [
            ([0, 1, 2], [1, 3], "offsets must run from 0"),
            ([0, 1, 2], [0, 2], "offsets must run from 0"),
            ([0, 1, 2], [0, 2, 1, 3], "non-decreasing"),
            ([0, 1, 2], [], "offsets"),
            ([0, -1, 2], [0, 3], "indices must lie in"),
            ([0, 1, 5], [0, 3], "indices must lie in"),
        ],
    )
    def test_rejects_malformed(self, indices, offsets, match):
        with pytest.raises(ValueError, match=match):
            Partition(indices, offsets, num_samples=5)

    def test_range_checked_against_the_dataset_it_is_used_with(self):
        parts = iid_partition(make_ds(n=40), 4, seed=0)
        with pytest.raises(ValueError, match="indices must lie in"):
            Partition.of(parts, 30)
        with pytest.raises(ValueError, match="indices must lie in"):
            label_distribution(make_ds(n=30), parts)
