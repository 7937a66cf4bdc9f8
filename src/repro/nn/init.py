"""Weight-initialization schemes.

He initialization for ReLU networks (the paper's MLP/CNN), in the
*uniform* variant for cheap sampling.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["he_uniform", "zeros"]


def he_uniform(
    shape: tuple[int, ...], fan_in: int, rng: np.random.Generator
) -> np.ndarray:
    """He/Kaiming uniform: U(-sqrt(6/fan_in), +sqrt(6/fan_in))."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zeros array (bias init)."""
    return np.zeros(shape, dtype=np.float64)
