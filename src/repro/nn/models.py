"""Model containers and the paper's two architectures.

The paper (Section 6.1, "Models"):

* MNIST / EMNIST — fully-connected net with 2 hidden layers of 200 and 100
  neurons.
* CIFAR10 / CIFAR100 — CNN with 2 convolutional layers of 64 filters of
  size 5x5, followed by two fully-connected layers with 394 and 192 neurons
  and a softmax output.

:func:`paper_cnn` keeps that exact layer structure but accepts the input
resolution as a parameter, because the offline substrate runs reduced-size
synthetic images (see DESIGN.md, substitution table).
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Conv2d, Dense, Flatten, Layer, MaxPool2d, ReLU
from repro.nn.losses import Loss, SoftmaxCrossEntropy
from repro.nn.tensor import Parameter
from repro.utils.rng import as_generator

__all__ = ["Sequential", "paper_mlp", "paper_cnn", "logistic_model"]


class Sequential:
    """A feed-forward stack of layers with a loss head.

    All trainable scalars live in one contiguous float64 vector ``theta``
    with a matching ``grad`` vector; every :class:`Parameter` holds reshaped
    *views* into them.  Federated serialization
    (:func:`~repro.nn.serialization.get_flat_params` /
    :func:`~repro.nn.serialization.set_flat_params`) therefore collapses to
    a single ``np.copyto`` and the SGD step runs as whole-vector BLAS ops.
    The layer stack is fixed at construction (``layers`` is a read-only
    tuple) and the buffers are built once; a model with a different stack
    is a new ``Sequential``.
    """

    def __init__(self, layers: list[Layer], loss: Loss | None = None) -> None:
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self._layers = tuple(layers)
        self.loss = loss if loss is not None else SoftmaxCrossEntropy()
        self._build_flat()

    @property
    def layers(self) -> tuple[Layer, ...]:
        return self._layers

    # ----------------------------------------------------- flat buffer

    def __getstate__(self):
        """Drop the flat-buffer machinery: numpy views do not survive
        pickling (each array rehydrates standalone), so shipping the
        buffers would silently desync the copy.  ``__setstate__`` rebuilds
        them from the layers' (standalone) parameter values."""
        state = self.__dict__.copy()
        for key in (
            "_params",
            "_theta",
            "_grad",
            "_skip_idx",
            "_fast_layer",
            "_relu_layer",
            "_overwrite_ok",
        ):
            state.pop(key, None)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._build_flat()

    def _build_flat(self) -> None:
        """Rebase every parameter onto freshly allocated flat buffers."""
        layers = self._layers
        params: list[Parameter] = []
        for layer in layers:
            params.extend(layer.parameters())
        # Backward-pass fast-path eligibility.  Exact types only: a layer
        # subclass may override backward() without the fast-path keywords,
        # so it silently opts out of both optimizations.
        # _skip_idx: first parameterized layer, whose input-gradient GEMM
        # can be skipped when the caller discards input grads.
        # _overwrite_ok: every parameterized layer can write its gradient
        # in place of (rather than into) the grad buffer.
        self._skip_idx = -1
        for i, layer in enumerate(layers):
            if layer.parameters():
                if type(layer) in (Conv2d, Dense):
                    self._skip_idx = i
                break
        self._fast_layer = [type(layer) in (Conv2d, Dense) for layer in layers]
        self._relu_layer = [type(layer) is ReLU for layer in layers]
        self._overwrite_ok = all(
            fast
            for fast, layer in zip(self._fast_layer, layers)
            if layer.parameters()
        )
        dim = sum(p.size for p in params)
        theta = np.empty(dim, dtype=np.float64)
        grad = np.empty(dim, dtype=np.float64)
        offset = 0
        for p in params:
            lo, hi = offset, offset + p.size
            p._rebase(theta[lo:hi].reshape(p.shape), grad[lo:hi].reshape(p.shape))
            offset = hi
        self._params = params
        self._theta = theta
        self._grad = grad

    @property
    def theta(self) -> np.ndarray:
        """The contiguous parameter vector every ``Parameter.data`` views."""
        return self._theta

    @property
    def grad(self) -> np.ndarray:
        """The contiguous gradient vector every ``Parameter.grad`` views."""
        return self._grad

    @property
    def dim(self) -> int:
        """Total number of trainable scalars."""
        return self._theta.size

    def set_flat(self, flat: np.ndarray) -> None:
        """Load a flat vector into ``theta`` (one ``np.copyto``)."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self._theta.shape:
            raise ValueError(
                f"expected vector of length {self._theta.size}, got {flat.shape}"
            )
        np.copyto(self._theta, flat)

    # ------------------------------------------------------- training

    def parameters(self) -> list[Parameter]:
        return list(self._params)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        for layer in self._layers:
            x = layer.forward(x, train=train)
        return x

    def backward(
        self,
        grad: np.ndarray,
        need_input_grad: bool = True,
        overwrite: bool = False,
    ) -> np.ndarray | None:
        """Backpropagate ``grad`` through all layers.

        With ``need_input_grad=False`` the pass stops after the lowest
        parameterized layer and skips that layer's input-gradient GEMM —
        nothing below it has gradients to accumulate, so training loops
        that discard the returned input gradient save the widest matmul of
        the backward pass (the first layer touches the raw features).

        With ``overwrite=True`` standard layers write their gradients in
        place of the grad buffer instead of accumulating, so the caller
        does not need to zero gradients first; requires every
        parameterized layer to support it (``self._overwrite_ok``).  The
        ``grad`` argument may be reused as scratch in this mode.
        """
        if overwrite and not self._overwrite_ok:
            raise ValueError(
                "overwrite=True requires every parameterized layer to be a "
                "standard Dense/Conv2d (a subclass or custom layer would "
                "silently accumulate instead)"
            )
        return self._backward(grad, need_input_grad, overwrite)

    def _backward(
        self, grad: np.ndarray, need_input_grad: bool, overwrite: bool
    ) -> np.ndarray | None:
        """Backward loop shared by :meth:`backward` and
        :meth:`loss_and_grad`."""
        stop = self._skip_idx if not need_input_grad else -1
        layers = self._layers
        fast_layer = self._fast_layer
        for i in range(len(layers) - 1, -1, -1):
            layer = layers[i]
            fast = overwrite and fast_layer[i]
            if i == stop:
                layer.backward(grad, need_input_grad=False, accumulate=not fast)
                return None
            if fast:
                grad = layer.backward(grad, accumulate=False)
            elif overwrite and self._relu_layer[i]:
                # The inter-layer grad array is loop-private here, so the
                # ReLU mask can be applied in place.
                grad = layer.backward_inplace(grad)
            else:
                grad = layer.backward(grad)
        return grad

    def zero_grad(self) -> None:
        self._grad[...] = 0.0

    def loss_and_grad(self, x: np.ndarray, y: np.ndarray) -> float:
        """One fused training pass: forward, loss, backward.

        On return the parameter gradients hold exactly this batch's
        gradients (no pre-zeroing needed); the caller takes the SGD step
        afterwards.  The loss head's value and logit gradient come from
        one fused computation, and standard layers write their gradients
        via overwriting GEMMs instead of zero-then-accumulate.
        """
        logits = self.forward(x, train=True)
        value, logit_grad = self.loss.value_and_grad(logits, y)
        if self._overwrite_ok:
            self._backward(logit_grad, need_input_grad=False, overwrite=True)
        else:
            self._grad[...] = 0.0
            self._backward(logit_grad, need_input_grad=False, overwrite=False)
        return value

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions without caching activations."""
        preds = []
        for start in range(0, x.shape[0], batch_size):
            logits = self.forward(x[start : start + batch_size], train=False)
            preds.append(logits.argmax(axis=1))
        return np.concatenate(preds) if preds else np.empty(0, dtype=np.int64)

    def accuracy(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
        """Top-1 accuracy on (x, y)."""
        if x.shape[0] == 0:
            raise ValueError("cannot compute accuracy on an empty set")
        return float((self.predict(x, batch_size=batch_size) == y).mean())

    def evaluate_loss(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> float:
        """Mean loss over (x, y) without touching gradients."""
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot compute loss on an empty set")
        total = 0.0
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = self.forward(xb, train=False)
            total += self.loss.value(logits, yb) * xb.shape[0]
        return total / n

    def evaluate_metrics(
        self, x: np.ndarray, y: np.ndarray, batch_size: int = 256
    ) -> tuple[float, float]:
        """(accuracy, mean loss) over (x, y) in a single forward sweep.

        Equivalent to ``(self.accuracy(x, y), self.evaluate_loss(x, y))``
        but runs each batch's forward pass once instead of twice.
        """
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot evaluate metrics on an empty set")
        correct = 0
        total = 0.0
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = self.forward(xb, train=False)
            correct += int((logits.argmax(axis=1) == yb).sum())
            total += self.loss.value(logits, yb) * xb.shape[0]
        return correct / n, total / n


def paper_mlp(
    in_features: int,
    num_classes: int,
    seed: int | np.random.Generator | None = 0,
    hidden: tuple[int, int] = (200, 100),
) -> Sequential:
    """The paper's MNIST/EMNIST model: FC(200) - ReLU - FC(100) - ReLU - FC(C)."""
    rng = as_generator(seed)
    h1, h2 = hidden
    return Sequential(
        [
            Dense(in_features, h1, rng=rng, name="fc1"),
            ReLU(),
            Dense(h1, h2, rng=rng, name="fc2"),
            ReLU(),
            Dense(h2, num_classes, rng=rng, name="head"),
        ]
    )


def paper_cnn(
    in_channels: int,
    image_size: int,
    num_classes: int,
    seed: int | np.random.Generator | None = 0,
    conv_channels: int = 64,
    kernel_size: int = 5,
    fc_sizes: tuple[int, int] = (394, 192),
) -> Sequential:
    """The paper's CIFAR model: 2x [Conv(64, 5x5) - ReLU - MaxPool(2)] - FC(394) - FC(192) - FC(C).

    Spatial geometry uses SAME padding so any even ``image_size >= 4`` works
    (the paper used 32x32; the offline benches run smaller inputs).
    """
    if image_size % 4 != 0:
        raise ValueError(
            f"image_size must be divisible by 4 for two 2x2 pools, got {image_size}"
        )
    rng = as_generator(seed)
    pad = kernel_size // 2
    s1 = image_size // 2
    s2 = image_size // 4
    flat = conv_channels * s2 * s2
    f1, f2 = fc_sizes
    return Sequential(
        [
            Conv2d(in_channels, conv_channels, kernel_size, padding=pad, rng=rng, name="conv1"),
            ReLU(),
            MaxPool2d(2),
            Conv2d(conv_channels, conv_channels, kernel_size, padding=pad, rng=rng, name="conv2"),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Dense(flat, f1, rng=rng, name="fc1"),
            ReLU(),
            Dense(f1, f2, rng=rng, name="fc2"),
            ReLU(),
            Dense(f2, num_classes, rng=rng, name="head"),
        ]
    )


def logistic_model(
    in_features: int,
    num_classes: int,
    seed: int | np.random.Generator | None = 0,
) -> Sequential:
    """Multinomial logistic regression — the strongly-convex objective used
    to validate the Theorem 5.1 convergence analysis."""
    rng = as_generator(seed)
    return Sequential([Dense(in_features, num_classes, rng=rng, name="logit")])
