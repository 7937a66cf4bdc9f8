"""FedAvg baseline.

The paper runs FedAvg "in an asynchronous setting": the server collects
weights at regular intervals (one round = the slowest participant's unit
time), so a fast device fits several local-training units into the round
while a slow one fits exactly one — "devices with more computing power are
able to do more rounds of local training" (Section 6.1).  Aggregation is
the classic sample-count weighting (Eq. 3) by default; the ``aggregator``
config swaps in the robust rules from :mod:`repro.core.aggregation`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aggregation import (
    AGGREGATORS,
    coordinate_median,
    krum,
    multi_krum,
    sample_weighted_average,
    trimmed_mean,
    uniform_average,
)
from repro.core.registry import register_method
from repro.core.server import FederatedServer, ServerConfig
from repro.utils.config import validate_non_negative

__all__ = ["FedAvgConfig", "FedAvgServer"]


@dataclass
class FedAvgConfig(ServerConfig):
    """FedAvg's only knob beyond the shared ones is the aggregation rule."""

    #: One of :data:`repro.core.aggregation.AGGREGATORS`; "sample" is the
    #: paper's Eq. 3 weighting, "median"/"trimmed_mean"/"krum"/"multi_krum"
    #: the robust rules.
    aggregator: str = "sample"
    #: Per-tail trim fraction when ``aggregator="trimmed_mean"``.
    trim_fraction: float = 0.1
    #: Byzantine bound f for krum/multi_krum; None derives the classic
    #: maximum the guarantee supports, ``floor((n - 3) / 2)`` of the
    #: arrived stack.
    krum_malicious: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.aggregator not in AGGREGATORS:
            raise ValueError(
                f"aggregator must be one of {AGGREGATORS}, got {self.aggregator!r}"
            )
        if self.krum_malicious is not None:
            validate_non_negative(self.krum_malicious, "krum_malicious")


@register_method(
    "fedavg",
    config=FedAvgConfig,
    description="asynchronous-setting FedAvg: fast devices fit extra epochs",
)
class FedAvgServer(FederatedServer):
    """The FedAvg family's one round: broadcast, train, collect, close,
    aggregate.  FedProx and TFedAvg subclass it and declare only what
    differs: the proximal term (:meth:`proximal`) and the epoch rule
    (:meth:`round_epochs`)."""

    method = "fedavg"
    fault_aware = True
    deadline_aware = True
    config_cls = FedAvgConfig

    def round_epochs(self, ids: np.ndarray, duration: float) -> np.ndarray:
        """Local epochs per receiver: as many units as fit in the round."""
        return self.epochs_for(ids, duration)

    def proximal(self, view: np.ndarray) -> dict:
        """``train_round`` keywords for a proximal pull; FedAvg has none."""
        return {}

    def aggregate_stack(self, stack: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Apply the configured aggregation rule to the arrived stack."""
        cfg: FedAvgConfig = self.config  # type: ignore[assignment]
        agg = cfg.aggregator
        if agg == "uniform":
            return uniform_average(stack)
        if agg == "median":
            return coordinate_median(stack)
        if agg == "trimmed_mean":
            return trimmed_mean(stack, cfg.trim_fraction)
        if agg in ("krum", "multi_krum"):
            f = cfg.krum_malicious
            if f is None:
                f = max((len(stack) - 3) // 2, 0)
            if agg == "krum":
                return krum(stack, f)
            return multi_krum(stack, f)
        return sample_weighted_average(stack, counts)

    def run_round(
        self,
        round_idx: int,
        ids: np.ndarray,
        global_weights: np.ndarray,
    ) -> np.ndarray:
        duration = self.round_duration(ids)
        # ``view`` is the model devices actually receive — global_weights
        # itself under the identity codec, the decoded broadcast otherwise.
        receivers, view = self.broadcast_model(ids, global_weights)
        epochs = self.round_epochs(receivers, duration)
        # The round arena's rows double as the devices' weight rows: each
        # unit trains straight into fleet state, no per-device result
        # copy, and the stack feeds aggregation as-is.
        stack = self.fleet.round_matrix(receivers)
        self.train_round(stack=stack, ids=receivers, epochs=epochs,
                         round_idx=round_idx, global_weights=view,
                         **self.proximal(view))
        arrived, stack = self.collect_models(receivers, stack, reference=view)
        # Fault/deadline-aware round close: on the fast path this is
        # exactly clock.advance_by(duration); with faults armed it draws
        # the round's completion delays, corrupts byzantine uploads and
        # cuts stragglers at the configured deadline.
        arrived, stack = self.charge_round(
            round_idx, receivers, duration, stack, arrived
        )
        counts = self.fleet.num_samples[receivers]
        stack, counts = self.filter_arrived(arrived, stack, counts)
        return self.aggregate_stack(stack, counts)
