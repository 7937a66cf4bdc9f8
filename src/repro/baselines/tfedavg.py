"""TFedAvg baseline: strictly synchronous FedAvg.

Every participant performs exactly one local-training unit (the paper's 5
epochs) and then idles until the slowest finishes; the server aggregates
once per round with sample-count weights.  This is the straggler-bound
configuration that motivates the whole paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aggregation import sample_weighted_average
from repro.core.registry import register_method
from repro.core.server import FederatedServer, ServerConfig

__all__ = ["TFedAvgConfig", "TFedAvgServer"]


@dataclass
class TFedAvgConfig(ServerConfig):
    """TFedAvg has no extra hyper-parameters beyond the shared ones."""


@register_method(
    "tfedavg",
    config=TFedAvgConfig,
    description="strictly synchronous FedAvg: the server waits for the slowest",
)
class TFedAvgServer(FederatedServer):
    method = "tfedavg"

    def run_round(
        self,
        round_idx: int,
        ids: np.ndarray,
        global_weights: np.ndarray,
    ) -> np.ndarray:
        duration = self.round_duration(ids)  # wait for the straggler
        receivers, view = self.broadcast_model(ids, global_weights)
        stack = self.fleet.round_matrix(receivers)
        epochs = np.full(len(receivers), self.config.local_epochs)
        self.train_round(stack=stack, ids=receivers, epochs=epochs,
                         round_idx=round_idx, global_weights=view)
        arrived, stack = self.collect_models(receivers, stack, reference=view)
        self.clock.advance_by(duration)
        counts = self.fleet.num_samples[receivers]
        stack, counts = self.filter_arrived(arrived, stack, counts)
        return sample_weighted_average(stack, counts)
