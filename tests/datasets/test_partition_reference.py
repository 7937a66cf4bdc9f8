"""The CSR partitioners return exactly the shards the frozen dealing-loop
reference returns, and consume the rng exactly as it does.

Goldens and every recorded accuracy depend on the shards, so this is an
equality contract, not a statistical one.
"""

import numpy as np
import pytest

from repro.datasets import partition as csr
from repro.datasets.core import ClassificationDataset
from tests.datasets import reference_partition as reference


def make_ds(n, classes=10, seed=0, absent=()):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, size=n)
    for k in absent:
        y[y == k] = (k + 1) % classes
    return ClassificationDataset(np.zeros((n, 1)), y, classes)


class CountingGenerator(np.random.Generator):
    """Counts ``dirichlet`` draws: one per non-empty class per retry."""

    dirichlet_calls = 0

    def dirichlet(self, *args, **kwargs):
        self.dirichlet_calls += 1
        return super().dirichlet(*args, **kwargs)


def assert_same_shards(got, want):
    assert isinstance(got, csr.Partition)
    assert len(got) == len(want)
    for dev, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype == np.intp
        np.testing.assert_array_equal(a, b, err_msg=f"device {dev}")


def dirichlet_both(dataset, num_devices, beta, seed, min_samples=1, **kwargs):
    """(new shards, reference shards, retries the new code made); also
    requires both to leave the generator in the same state."""
    new_rng = CountingGenerator(np.random.PCG64(seed))
    ref_rng = np.random.Generator(np.random.PCG64(seed))
    got = csr.dirichlet_partition(
        dataset, num_devices, beta, seed=new_rng, min_samples=min_samples, **kwargs
    )
    want = reference.dirichlet_partition(
        dataset, num_devices, beta, seed=ref_rng, min_samples=min_samples, **kwargs
    )
    assert new_rng.bit_generator.state == ref_rng.bit_generator.state
    nonempty = np.count_nonzero(dataset.class_counts())
    return got, want, new_rng.dirichlet_calls // nonempty


class TestDirichletMatchesReference:
    @pytest.mark.parametrize("beta", [0.01, 0.05, 0.3, 0.8])
    @pytest.mark.parametrize("min_samples", [1, 3])
    @pytest.mark.parametrize(
        "num_devices,num_samples", [(8, 400), (12, 300), (40, 400), (100, 1000)]
    )
    def test_grid(self, num_devices, num_samples, beta, min_samples):
        dataset = make_ds(num_samples)
        for seed in (0, 1, 2):
            got, want, _ = dirichlet_both(
                dataset, num_devices, beta, seed, min_samples
            )
            assert_same_shards(got, want)
            assert got.sizes.min() >= min_samples

    def test_first_try_success(self):
        got, want, retries = dirichlet_both(make_ds(400), 8, 0.8, seed=0)
        assert retries == 1
        assert_same_shards(got, want)

    def test_mid_loop_success(self):
        got, want, retries = dirichlet_both(
            make_ds(400), 40, 0.3, seed=2, min_samples=3
        )
        assert 1 < retries < 100
        assert_same_shards(got, want)

    def test_retries_exhausted_then_repaired(self):
        """The fleet-scale regime (every draw starves someone) at a size
        tier-1 can afford: all 100 retries fail, the last draw is repaired."""
        got, want, retries = dirichlet_both(make_ds(2400), 600, 0.3, seed=0)
        assert retries == 100
        assert_same_shards(got, want)

    def test_repair_respects_min_samples_above_one(self):
        got, want, retries = dirichlet_both(
            make_ds(300), 12, 0.01, seed=0, min_samples=3
        )
        assert retries == 100
        assert_same_shards(got, want)
        assert got.sizes.min() >= 3

    def test_short_retry_budget_repairs_that_draw(self):
        got, want, retries = dirichlet_both(
            make_ds(400), 40, 0.3, seed=2, min_samples=3, max_retries=2
        )
        assert retries == 2
        assert_same_shards(got, want)

    def test_absent_classes(self):
        dataset = make_ds(500, absent=(0, 4, 8))
        assert np.count_nonzero(dataset.class_counts()) == 7
        for beta in (0.05, 0.3):
            got, want, _ = dirichlet_both(dataset, 20, beta, seed=3)
            assert_same_shards(got, want)

    def test_zero_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            csr.dirichlet_partition(make_ds(100), 4, 0.3, max_retries=0)


class TestOtherSchemesMatchReference:
    """iid / shard / contiguous equal their pre-CSR outputs on pinned seeds."""

    @pytest.mark.parametrize("seed", [0, 6, 13])
    @pytest.mark.parametrize("num_devices,num_samples", [(7, 100), (8, 96), (50, 1234)])
    def test_iid(self, num_devices, num_samples, seed):
        dataset = make_ds(num_samples)
        assert_same_shards(
            csr.iid_partition(dataset, num_devices, seed=seed),
            reference.iid_partition(dataset, num_devices, seed=seed),
        )

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize(
        "num_devices,num_samples,shards_per_device",
        [(6, 120, 2), (10, 503, 2), (7, 100, 3), (9, 90, 1)],
    )
    def test_shard(self, num_devices, num_samples, shards_per_device, seed):
        dataset = make_ds(num_samples)
        assert_same_shards(
            csr.shard_partition(dataset, num_devices, shards_per_device, seed=seed),
            reference.shard_partition(dataset, num_devices, shards_per_device, seed=seed),
        )

    @pytest.mark.parametrize("num_devices,num_samples", [(7, 101), (8, 96), (5, 5)])
    def test_contiguous(self, num_devices, num_samples):
        dataset = make_ds(num_samples)
        assert_same_shards(
            csr.contiguous_partition(dataset, num_devices),
            reference.contiguous_partition(dataset, num_devices),
        )
