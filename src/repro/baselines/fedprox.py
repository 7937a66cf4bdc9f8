"""FedProx baseline.

FedAvg's round structure (heterogeneous devices run however many epochs fit
in the round) plus a proximal term ``(mu/2) ||w - w_global||^2`` in every
device objective, which bounds how far partial/extended local work can
drift from the round-start model (Section 2.2/6.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.fedavg import FedAvgServer
from repro.core.aggregation import sample_weighted_average
from repro.core.registry import register_method
from repro.core.server import ServerConfig
from repro.utils.config import validate_non_negative

__all__ = ["FedProxConfig", "FedProxServer"]


@dataclass
class FedProxConfig(ServerConfig):
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

    def run_round(
        self,
        round_idx: int,
        ids: np.ndarray,
        global_weights: np.ndarray,
    ) -> np.ndarray:
        cfg: FedProxConfig = self.config  # type: ignore[assignment]
        duration = self.round_duration(ids)
        receivers, view = self.broadcast_model(ids, global_weights)
        epochs = self.epochs_for(receivers, duration)
        stack = self.fleet.round_matrix(receivers)
        # The proximal anchor is the model devices received — the decoded
        # broadcast under a lossy codec, global_weights itself otherwise.
        self.train_round(stack=stack, ids=receivers, epochs=epochs,
                         round_idx=round_idx, global_weights=view,
                         anchor=view, mu=cfg.mu)
        arrived, stack = self.collect_models(receivers, stack, reference=view)
        arrived, stack = self.charge_round(
            round_idx, receivers, duration, stack, arrived
        )
        counts = self.fleet.num_samples[receivers]
        stack, counts = self.filter_arrived(arrived, stack, counts)
        return sample_weighted_average(stack, counts)
