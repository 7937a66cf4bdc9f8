"""Small validation and configuration helpers used across the library."""

from __future__ import annotations

import dataclasses
import numbers
from typing import Any

__all__ = [
    "validate_fraction",
    "validate_positive",
    "validate_at_least",
    "validate_non_negative",
    "freeze",
]


def _require_number(value: Any, name: str) -> None:
    # numbers.Real admits numpy scalars; bool is technically an int but a
    # True that reaches a numeric knob is always a caller mistake.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def validate_fraction(value: float, name: str, *, inclusive_low: bool = False) -> float:
    """Validate that ``value`` lies in ``(0, 1]`` (or ``[0, 1]``)."""
    _require_number(value, name)
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    if not (low_ok and value <= 1.0):
        bracket = "[0, 1]" if inclusive_low else "(0, 1]"
        raise ValueError(f"{name} must be in {bracket}, got {value}")
    return float(value)


def validate_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive."""
    _require_number(value, name)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def validate_at_least(value: float, low: float, name: str) -> float:
    """Validate that ``value`` is >= ``low`` (NaN compares false: rejected)."""
    _require_number(value, name)
    if not value >= low:
        raise ValueError(f"{name} must be >= {low:g}, got {value}")
    return value


def validate_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0."""
    return validate_at_least(value, 0, name)


def freeze(obj: Any) -> Any:
    """Recursively convert dataclasses/dicts/lists into hashable tuples.

    Used to derive cache keys from experiment configurations.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return tuple(
            (f.name, freeze(getattr(obj, f.name))) for f in dataclasses.fields(obj)
        )
    if isinstance(obj, dict):
        return tuple(sorted((k, freeze(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(freeze(v) for v in obj)
    if isinstance(obj, set):
        return tuple(sorted(freeze(v) for v in obj))
    return obj
