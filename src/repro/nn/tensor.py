"""Trainable parameter container.

A :class:`Parameter` pairs a value array with a same-shaped gradient buffer.
Both are plain ``float64`` ndarrays; optimizers mutate ``data`` in place so
views handed out elsewhere stay valid (guide: in-place ops, views not
copies).

When a parameter belongs to a :class:`~repro.nn.models.Sequential`, its
``data`` and ``grad`` are *views* into the model's contiguous ``theta`` /
``grad`` vectors (see DESIGN.md, "Flat-buffer memory model").
"""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter"]


class Parameter:
    """A trainable array with an accumulated gradient."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = "param") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        """Reset the gradient buffer in place."""
        self.grad[...] = 0.0

    def copy(self) -> "Parameter":
        """Deep copy (data and grad) — always standalone arrays, never views."""
        p = Parameter(self.data.copy(), self.name)
        p.grad = self.grad.copy()
        return p

    def __getstate__(self):
        """Pickle values only: views do not survive serialization (the
        owning model rebuilds them, see ``Sequential.__setstate__``)."""
        return (self.data, self.grad, self.name)

    def __setstate__(self, state) -> None:
        self.data, self.grad, self.name = state

    def _rebase(self, data_view: np.ndarray, grad_view: np.ndarray) -> None:
        """Move storage onto externally-owned views, preserving values."""
        data_view[...] = self.data
        grad_view[...] = self.grad
        self.data = data_view
        self.grad = grad_view

    def __repr__(self) -> str:
        return f"Parameter(name={self.name!r}, shape={self.shape})"
