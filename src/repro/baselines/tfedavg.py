"""TFedAvg baseline: strictly synchronous FedAvg.

Every participant performs exactly one local-training unit (the paper's 5
epochs) and then idles until the slowest finishes; the server aggregates
once per round.  This is the straggler-bound configuration that motivates
the whole paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.fedavg import FedAvgConfig, FedAvgServer
from repro.core.registry import register_method

__all__ = ["TFedAvgConfig", "TFedAvgServer"]


@dataclass
class TFedAvgConfig(FedAvgConfig):
    """TFedAvg has no hyper-parameters beyond FedAvg's."""


@register_method(
    "tfedavg",
    config=TFedAvgConfig,
    description="strictly synchronous FedAvg: the server waits for the slowest",
)
class TFedAvgServer(FedAvgServer):
    method = "tfedavg"
    config_cls = TFedAvgConfig

    def round_epochs(self, ids: np.ndarray, duration: float) -> np.ndarray:
        """One unit per participant, however fast it is."""
        return np.full(len(ids), self.config.local_epochs)
