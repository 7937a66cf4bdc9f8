"""Layer objects with explicit forward/backward passes.

Every layer caches what its backward pass needs during ``forward`` and
releases it on the next call.  Gradients accumulate into ``Parameter.grad``
(callers zero them between steps), matching the usual autograd contract.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init as _init
from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.tensor import Parameter

__all__ = [
    "Layer",
    "Dense",
    "Conv2d",
    "ReLU",
    "Flatten",
    "MaxPool2d",
]


class Layer:
    """Base class: parameters + forward/backward."""

    def parameters(self) -> list[Parameter]:
        """Trainable parameters of this layer (possibly empty)."""
        return []

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; return gradient w.r.t. the input."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        return self.forward(x, train=train)


class Dense(Layer):
    """Affine layer ``y = x @ W + b`` with He-uniform init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        name: str = "dense",
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            _init.he_uniform((in_features, out_features), in_features, rng),
            name=f"{name}.weight",
        )
        self.bias = Parameter(_init.zeros((out_features,)), name=f"{name}.bias")
        self._x: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input (N, {self.in_features}), got {x.shape}"
            )
        self._x = x if train else None
        out = x @ self.weight.data
        out += self.bias.data
        return out

    def backward(
        self,
        grad_out: np.ndarray,
        need_input_grad: bool = True,
        accumulate: bool = True,
    ) -> np.ndarray | None:
        """``accumulate=False`` writes the GEMM results straight into the
        grad buffers (no temp, no add) — valid only when the caller treats
        the grads as this batch's gradient, as ``Sequential.loss_and_grad``
        does."""
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        if accumulate:
            self.weight.grad += self._x.T @ grad_out
            self.bias.grad += grad_out.sum(axis=0)
        else:
            np.matmul(self._x.T, grad_out, out=self.weight.grad)
            np.add.reduce(grad_out, axis=0, out=self.bias.grad)
        grad_in = grad_out @ self.weight.data.T if need_input_grad else None
        self._x = None
        return grad_in


class Conv2d(Layer):
    """2-D convolution (NCHW) implemented as im2col + GEMM."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: np.random.Generator | None = None,
        name: str = "conv",
    ) -> None:
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError("conv dimensions must be positive")
        if padding < 0:
            raise ValueError("padding must be non-negative")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            _init.he_uniform(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
            ),
            name=f"{name}.weight",
        )
        self.bias = Parameter(_init.zeros((out_channels,)), name=f"{name}.bias")
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def output_shape(self, h: int, w: int) -> tuple[int, int]:
        k, s, p = self.kernel_size, self.stride, self.padding
        return conv_output_size(h, k, s, p), conv_output_size(w, k, s, p)

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"expected input (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n, _, h, w = x.shape
        oh, ow = self.output_shape(h, w)
        k = self.kernel_size
        cols = im2col(x, k, k, self.stride, self.padding)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        out = cols @ w_mat.T + self.bias.data
        out = out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        if train:
            self._cols = cols
            self._x_shape = x.shape
        return out

    def backward(
        self,
        grad_out: np.ndarray,
        need_input_grad: bool = True,
        accumulate: bool = True,
    ) -> np.ndarray | None:
        """See :meth:`Dense.backward` for the ``accumulate=False`` contract."""
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        n, f, oh, ow = grad_out.shape
        k = self.kernel_size
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        if accumulate:
            self.weight.grad += (grad_mat.T @ self._cols).reshape(self.weight.shape)
            self.bias.grad += grad_mat.sum(axis=0)
        else:
            np.matmul(
                grad_mat.T,
                self._cols,
                out=self.weight.grad.reshape(self.out_channels, -1),
            )
            np.add.reduce(grad_mat, axis=0, out=self.bias.grad)
        if need_input_grad:
            grad_cols = grad_mat @ w_mat
            grad_in = col2im(
                grad_cols, self._x_shape, k, k, self.stride, self.padding
            )
        else:
            grad_in = None
        self._cols = None
        self._x_shape = None
        return grad_in


class ReLU(Layer):
    """Elementwise max(x, 0)."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        out = np.maximum(x, 0.0)
        self._mask = x > 0.0 if train else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        grad_in = grad_out * self._mask
        self._mask = None
        return grad_in

    def backward_inplace(self, grad_out: np.ndarray) -> np.ndarray:
        """Mask ``grad_out`` in place (same values as :meth:`backward`);
        only for callers that own the array, e.g. the fused backward loop."""
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        np.multiply(grad_out, self._mask, out=grad_out)
        self._mask = None
        return grad_out


class Flatten(Layer):
    """Collapse all but the batch dimension."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        self._shape = x.shape if train else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before a training forward pass")
        grad_in = grad_out.reshape(self._shape)
        self._shape = None
        return grad_in


class MaxPool2d(Layer):
    """Non-overlapping max pooling (kernel == stride), NCHW."""

    def __init__(self, kernel_size: int) -> None:
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        if h % k or w % k:
            raise ValueError(
                f"input spatial dims ({h},{w}) must be divisible by kernel {k}"
            )
        oh, ow = h // k, w // k
        windows = x.reshape(n, c, oh, k, ow, k).transpose(0, 1, 2, 4, 3, 5)
        flat = windows.reshape(n, c, oh, ow, k * k)
        out = flat.max(axis=-1)
        if train:
            self._argmax = flat.argmax(axis=-1)
            self._x_shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        n, c, h, w = self._x_shape
        k = self.kernel_size
        oh, ow = h // k, w // k
        grad_flat = np.zeros((n, c, oh, ow, k * k), dtype=grad_out.dtype)
        np.put_along_axis(
            grad_flat, self._argmax[..., None], grad_out[..., None], axis=-1
        )
        grad_in = (
            grad_flat.reshape(n, c, oh, ow, k, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, h, w)
        )
        self._argmax = None
        self._x_shape = None
        return grad_in
