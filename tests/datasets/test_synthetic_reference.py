"""The row-chunked generator returns exactly the arrays the frozen
whole-array reference returns, and ``arrange`` only reorders them.

Goldens and every recorded accuracy depend on the samples, so this is an
equality contract, not a statistical one.  It is also the chunked-GEMM
canary: ``latent[chunk] @ proj`` must equal the rows of ``latent @ proj``
bit for bit on the installed BLAS, which the sizes around ``_CHUNK_ROWS``
probe.
"""

import numpy as np
import pytest

from repro.datasets import synthetic
from repro.datasets.synthetic import SyntheticSpec
from tests.datasets import reference_synthetic as reference

CHUNK = synthetic._CHUNK_ROWS
SIZES = [300, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2]
FACTORIES = ["mnist_like", "emnist_like", "cifar10_like", "cifar100_like"]


def bits(x):
    """Features as raw 64-bit words: equal means bitwise equal (signed
    zeros included), which ``assert_array_equal`` on floats is not."""
    return np.ascontiguousarray(x).view(np.uint64)


def assert_same(got, want):
    assert got.x.dtype == want.x.dtype and got.y.dtype == want.y.dtype
    np.testing.assert_array_equal(bits(got.x), bits(want.x))
    np.testing.assert_array_equal(got.y, want.y)
    assert (got.num_classes, got.name) == (want.num_classes, want.name)


def shuffled(seed):
    """An ``arrange`` hook returning a seeded permutation; records the
    labels it was shown and the order it returned."""
    seen = {}

    def arrange(y, num_classes):
        seen["y"], seen["num_classes"] = y.copy(), num_classes
        seen["order"] = np.random.default_rng(seed).permutation(y.size)
        return seen["order"]

    return arrange, seen


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", FACTORIES)
def test_factories_match_reference(name, seed, size):
    want = getattr(reference, name)(num_samples=size, seed=seed)
    assert_same(getattr(synthetic, name)(num_samples=size, seed=seed), want)

    arrange, seen = shuffled(seed + 100)
    got = getattr(synthetic, name)(num_samples=size, seed=seed, arrange=arrange)
    np.testing.assert_array_equal(seen["y"], want.y)
    assert seen["num_classes"] == want.num_classes
    order = seen["order"]
    np.testing.assert_array_equal(bits(got.x), bits(want.x[order]))
    np.testing.assert_array_equal(got.y, want.y[order])


@pytest.mark.parametrize("squash", [False, True])
@pytest.mark.parametrize("balanced", [False, True])
@pytest.mark.parametrize("shape", [(12,), (2, 3, 3)])
def test_make_synthetic_matches_reference(shape, balanced, squash):
    spec = SyntheticSpec("s", 5, 2 * CHUNK + 3, 6, shape, squash=squash, balanced=balanced)
    assert_same(synthetic.make_synthetic(spec, 1), reference.make_synthetic(spec, 1))
    # A caller's generator is left in the same state, too.
    ours, theirs = np.random.default_rng(2), np.random.default_rng(2)
    assert_same(synthetic.make_synthetic(spec, ours), reference.make_synthetic(spec, theirs))
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_identity_arrange_is_a_no_op():
    spec = SyntheticSpec("s", 3, CHUNK + 1, 4, (8,))
    got = synthetic.make_synthetic(spec, seed=3, arrange=lambda y, k: np.arange(y.size))
    assert_same(got, reference.make_synthetic(spec, seed=3))


@pytest.mark.parametrize(
    "order",
    [
        lambda n: np.arange(n - 1),  # a row short
        lambda n: np.zeros(n, dtype=np.intp),  # repeats a sample
        lambda n: np.arange(n + 1) % n,  # a row too many
    ],
)
def test_arrange_must_return_a_permutation(order):
    spec = SyntheticSpec("s", 3, 30, 4, (8,))
    with pytest.raises(ValueError, match="permutation"):
        synthetic.make_synthetic(spec, seed=0, arrange=lambda y, k: order(y.size))
