"""BatchedSequential: stacked-GEMM replicas vs the sequential model.

Equivalence policy (DESIGN.md §15): every per-replica float op of the
batched engine mirrors the sequential path exactly, so results agree to
1e-12 always, and are *bitwise* identical on BLAS builds where a stacked
``np.matmul`` slice equals the corresponding 2-D product — the canary
test below checks that primitive directly and only then demands bitwise.
"""

import numpy as np
import pytest

from repro.nn.batched import BatchedSequential, stacked_gemm_is_bitwise
from repro.nn.layers import Dense, Flatten, Layer, MaxPool2d
from repro.nn.losses import Loss
from repro.nn.models import Sequential, logistic_model, paper_cnn, paper_mlp


def _mlp(seed=0):
    return paper_mlp(12, 4, seed=seed, hidden=(10, 6))


class _Sigmoid(Layer):
    """An activation the batched engine does not know."""

    def forward(self, x, train=True):
        return 1.0 / (1.0 + np.exp(-x))


class _L2Loss(Loss):
    """A loss head other than softmax cross-entropy."""

    def value(self, logits, targets):
        return float(((logits - targets) ** 2).mean())


def _replicated_batch(model, P=5, B=7, seed=3):
    """(theta arena, grad arena, x, y) for P perturbed replicas of model."""
    rng = np.random.default_rng(seed)
    w0 = model.theta.copy()
    theta = w0 + 0.01 * rng.normal(size=(P, model.dim))
    grad = np.empty_like(theta)
    x = rng.normal(size=(P, B, 12))
    y = rng.integers(0, 4, size=(P, B))
    return theta, grad, x, y


def _sequential_grads(model, theta, x, y):
    """Per-replica gradients from the sequential engine on the same inputs."""
    grads = np.empty_like(theta)
    for p in range(theta.shape[0]):
        model.set_flat(theta[p])
        model.loss_and_grad(x[p], y[p])
        grads[p] = model.grad
    return grads


class TestSupports:
    def test_mlp_supported(self):
        assert BatchedSequential.supports(_mlp())

    def test_single_dense_supported(self):
        assert BatchedSequential.supports(logistic_model(8, 3, seed=0))

    def test_leading_flatten_supported(self):
        model = Sequential([Flatten(), *_mlp().layers])
        assert BatchedSequential.supports(model)

    def test_cnn_unsupported(self):
        assert not BatchedSequential.supports(
            paper_cnn(1, 8, 4, seed=0, conv_channels=4, fc_sizes=(16, 8))
        )

    def test_mid_stack_flatten_unsupported(self):
        model = Sequential([Dense(6, 6, rng=np.random.default_rng(0)), Flatten(),
             Dense(6, 3, rng=np.random.default_rng(1))])
        assert not BatchedSequential.supports(model)

    @pytest.mark.parametrize("layer", [_Sigmoid(), MaxPool2d(1)])
    def test_non_relu_activations_unsupported(self, layer):
        model = Sequential([Dense(6, 6, rng=np.random.default_rng(0)), layer,
             Dense(6, 3, rng=np.random.default_rng(1))])
        assert not BatchedSequential.supports(model)

    def test_non_ce_loss_unsupported(self):
        model = Sequential([Dense(6, 3, rng=np.random.default_rng(0))], loss=_L2Loss())
        assert not BatchedSequential.supports(model)

    def test_constructor_rejects_unsupported(self):
        with pytest.raises(ValueError, match="not batchable"):
            BatchedSequential(
                Sequential([Dense(6, 3, rng=np.random.default_rng(0))], loss=_L2Loss())
            )


class TestBind:
    def test_requires_matching_arenas(self):
        engine = BatchedSequential(_mlp())
        theta = np.zeros((3, engine.dim))
        with pytest.raises(ValueError):
            engine.bind(theta, np.zeros((2, engine.dim)))
        with pytest.raises(ValueError):
            engine.bind(np.zeros((3, engine.dim + 1)), np.zeros((3, engine.dim + 1)))

    def test_views_alias_the_arenas(self):
        model = _mlp()
        engine = BatchedSequential(model)
        theta, grad, x, y = _replicated_batch(model)
        engine.bind(theta, grad)
        before = theta.copy()
        engine.loss_and_grad(x, y)
        # The forward pass reads weights through views: gradients landed in
        # the grad arena while theta itself is untouched.
        np.testing.assert_array_equal(theta, before)
        assert np.all(np.isfinite(grad))

    def test_loss_and_grad_requires_bind(self):
        engine = BatchedSequential(_mlp())
        with pytest.raises(RuntimeError):
            engine.loss_and_grad(np.zeros((1, 1, 12)), np.zeros((1, 1), dtype=int))


class TestEquivalence:
    def test_matches_sequential_within_tolerance(self):
        model = _mlp()
        engine = BatchedSequential(model)
        theta, grad, x, y = _replicated_batch(model)
        engine.bind(theta, grad)
        engine.loss_and_grad(x, y)
        want = _sequential_grads(model, theta, x, y)
        np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12)

    def test_logistic_model_matches(self):
        model = logistic_model(12, 4, seed=1)
        engine = BatchedSequential(model)
        theta, grad, x, y = _replicated_batch(model, P=4, B=5)
        engine.bind(theta, grad)
        engine.loss_and_grad(x, y)
        want = _sequential_grads(model, theta, x, y)
        np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12)

    def test_ragged_last_batch_shapes(self):
        # B=1 exercises the degenerate batch the last slice of an odd-sized
        # shard produces.
        model = _mlp()
        engine = BatchedSequential(model)
        theta, grad, x, y = _replicated_batch(model, P=3, B=1)
        engine.bind(theta, grad)
        engine.loss_and_grad(x, y)
        want = _sequential_grads(model, theta, x, y)
        np.testing.assert_allclose(grad, want, rtol=1e-12, atol=1e-12)

    def test_deterministic_across_calls(self):
        model = _mlp()
        engine = BatchedSequential(model)
        theta, grad, x, y = _replicated_batch(model)
        engine.bind(theta, grad)
        engine.loss_and_grad(x, y)
        first = grad.copy()
        engine.loss_and_grad(x, y)
        np.testing.assert_array_equal(grad, first)

    @pytest.mark.parametrize("lo, hi", [(0, 2), (1, 4), (3, 4), (0, 5)])
    def test_row_range_trains_only_those_replicas(self, lo, hi):
        # Bound once, executed on a row range: rows [lo, hi) get exactly
        # the gradients a full pass gives them, the others are untouched.
        model = _mlp()
        engine = BatchedSequential(model)
        theta, grad, x, y = _replicated_batch(model)
        engine.bind(theta, grad)
        engine.loss_and_grad(x, y)
        full = grad.copy()
        grad[:] = -7.0
        engine.loss_and_grad(x[lo:hi], y[lo:hi], lo, hi)
        np.testing.assert_array_equal(grad[lo:hi], full[lo:hi])
        assert np.all(grad[:lo] == -7.0) and np.all(grad[hi:] == -7.0)


def test_bitwise_identity_where_blas_delivers_it():
    """The documented divergence policy, made executable.

    When the stacked-GEMM primitive is bitwise on this platform (probed
    directly), the whole engine must be too; otherwise only the 1e-12
    contract (covered above) applies and this canary records the fact by
    skipping.
    """
    if not stacked_gemm_is_bitwise():
        pytest.skip(
            "this BLAS computes stacked-GEMM slices with different "
            "instruction selection; the 1e-12 contract applies"
        )
    model = _mlp()
    engine = BatchedSequential(model)
    theta, grad, x, y = _replicated_batch(model)
    engine.bind(theta, grad)
    engine.loss_and_grad(x, y)
    want = _sequential_grads(model, theta, x, y)
    np.testing.assert_array_equal(grad, want)
