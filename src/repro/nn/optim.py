"""The learning-rate schedule of the convergence analysis.

Local training itself is plain mini-batch SGD at a fixed rate, written
once in :meth:`repro.device.device.LocalTrainer.train` (and its stacked
twin in :mod:`repro.device.batched`); this module only keeps the decaying
schedule Theorem 5.1 is stated for.
"""

from __future__ import annotations

__all__ = ["InverseTimeLR"]


class InverseTimeLR:
    """``eta_t = numerator / (offset + t)``.

    With ``numerator = 2/mu`` and ``offset = gamma = max(8L/mu, E)`` this is
    exactly the schedule of Theorem 5.1 / [Li et al. 2020].
    """

    def __init__(self, numerator: float, offset: float) -> None:
        if numerator <= 0 or offset <= 0:
            raise ValueError("numerator and offset must be positive")
        self.numerator = numerator
        self.offset = offset

    def rate(self, step: int) -> float:
        return self.numerator / (self.offset + step)
