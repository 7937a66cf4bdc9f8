"""FedProx baseline.

FedAvg's round structure (heterogeneous devices run however many epochs fit
in the round) plus a proximal term ``(mu/2) ||w - w_global||^2`` in every
device objective, which bounds how far partial/extended local work can
drift from the round-start model (Section 2.2/6.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.fedavg import FedAvgConfig, FedAvgServer
from repro.core.registry import register_method
from repro.utils.config import validate_non_negative

__all__ = ["FedProxConfig", "FedProxServer"]


@dataclass
class FedProxConfig(FedAvgConfig):
    """``mu``: strength of the proximal pull toward the round-start model."""

    mu: float = 0.01

    def __post_init__(self) -> None:
        super().__post_init__()
        validate_non_negative(self.mu, "mu")


@register_method(
    "fedprox",
    config=FedProxConfig,
    description="FedAvg plus a proximal term toward the round-start model",
)
class FedProxServer(FedAvgServer):
    method = "fedprox"
    config_cls = FedProxConfig

    def proximal(self, view: np.ndarray) -> dict:
        # The proximal anchor is the model devices received — the decoded
        # broadcast under a lossy codec, global_weights itself otherwise.
        return {"anchor": view, "mu": self.config.mu}
