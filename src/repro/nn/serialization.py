"""Flat parameter-vector view of a model.

Federated-learning algorithms treat a model as a point in R^d: aggregation
is vector arithmetic, transmission cost is ``d`` floats.  A
:class:`~repro.nn.models.Sequential` already stores all parameters in one
contiguous ``theta`` / ``grad`` vector (per-layer views into it), so every
helper here is a single ``np.copyto`` and ``num_params`` is an attribute
read.
"""

from __future__ import annotations

import numpy as np

__all__ = ["num_params", "get_flat_params", "set_flat_params", "get_flat_grads"]


def num_params(model) -> int:
    """Total number of scalar parameters in ``model``."""
    return model.dim


def _copy_out(src: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    if out is None:
        return src.copy()
    if out.shape != src.shape:
        raise ValueError(f"out must have shape {src.shape}, got {out.shape}")
    np.copyto(out, src)
    return out


def get_flat_params(model, out: np.ndarray | None = None) -> np.ndarray:
    """Copy of the model's parameter vector.

    Pass ``out`` to reuse a buffer (hot aggregation loops).
    """
    return _copy_out(model.theta, out)


def set_flat_params(model, flat: np.ndarray) -> None:
    """Load a flat vector back into the model's parameters (copies data)."""
    model.set_flat(flat)


def get_flat_grads(model, out: np.ndarray | None = None) -> np.ndarray:
    """Copy of the model's gradient vector."""
    return _copy_out(model.grad, out)
