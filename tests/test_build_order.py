"""``build_experiment`` writes the dataset straight into fleet order.

The fleet's shards and the test set are the head and tail of one block
that the generator fills row by row, so the build holds one copy of the
samples.  Each array it hands to training and evaluation must still equal,
bit for bit, what the generate -> split -> partition -> gather pipeline
produced.
"""

import tracemalloc

import numpy as np
import pytest

from repro.datasets import make_dataset, partition_by_name, train_test_split
from repro.device import make_fleet
from repro.experiments import ExperimentSpec, build_experiment


def spec(**kwargs):
    base = dict(method="fedavg", num_samples=1500, num_devices=12, rounds=1, seed=4)
    return ExperimentSpec(**{**base, **kwargs})


def bits(a):
    """Raw 64-bit words: equal means bitwise equal, signed zeros included."""
    return np.ascontiguousarray(a).view(np.uint64)


def pipeline(spec, trainer, unit_times):
    """The fleet and test set as built before generation learned fleet order."""
    dataset = make_dataset(spec.dataset, num_samples=spec.num_samples, seed=spec.seed)
    train_set, test_set = train_test_split(dataset, spec.test_fraction, seed=spec.seed + 1)
    extra = {"beta": spec.beta} if spec.partition == "dirichlet" else {}
    parts = partition_by_name(
        spec.partition, train_set, spec.num_devices, seed=spec.seed + 2, **extra
    )
    return make_fleet(train_set, parts, unit_times, trainer), test_set


@pytest.mark.parametrize("dataset", ["mnist_like", "cifar10_like"])
@pytest.mark.parametrize("partition", ["iid", "dirichlet", "shard", "contiguous"])
def test_build_matches_the_split_then_gather_pipeline(partition, dataset):
    built = spec(partition=partition, dataset=dataset)
    server = build_experiment(built)
    fleet, test_set = server.fleet, server.test_set
    want_fleet, want_test = pipeline(built, server.trainer, fleet.unit_times)
    for got, want in (
        (fleet.x, want_fleet.x),
        (fleet.y, want_fleet.y),
        (fleet.shard_starts, want_fleet.shard_starts),
        (fleet.num_samples, want_fleet.num_samples),
        (test_set.x, want_test.x),
        (test_set.y, want_test.y),
    ):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(bits(got), bits(want))
    assert (fleet.name, test_set.name) == (want_fleet.name, want_test.name)

    # One block: the fleet's rows, then the test set's, in one buffer.
    assert fleet.x.base is not None and test_set.x.base is fleet.x.base
    assert test_set.x.ctypes.data == fleet.x.ctypes.data + fleet.x.nbytes
    assert test_set.y.base is fleet.y.base


def test_block_is_read_only():
    """Shards and the test set share a buffer: an in-place write to one
    raises rather than silently changing the other."""
    server = build_experiment(spec())
    for array in (server.fleet.shard(3).x, server.fleet.shard(3).y,
                  server.test_set.x, server.test_set.y):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_build_holds_one_copy_of_the_samples():
    """The build's peak allocation stays under twice the feature block:
    the block itself plus the latent draw and per-chunk work.  A split
    copy, a fleet gather or a whole-block temporary each add a block."""
    lab = ExperimentSpec(method="fedavg", fleet_profile="lab", num_samples=20_000, rounds=1)
    block_bytes = lab.num_samples * 64 * 8  # mnist_like: 64 float64 features
    tracemalloc.start()
    try:
        server = build_experiment(lab)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert server.fleet.x.nbytes + server.test_set.x.nbytes == block_bytes
    assert peak <= 2 * block_bytes, f"build peak {peak / block_bytes:.2f}x the block"
