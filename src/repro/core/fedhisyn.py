"""FedHiSyn (Algorithm 1): hierarchical synchronous federated learning.

Per round the server

1. samples the participant set ``S``,
2. clusters participants into ``K`` capacity classes by unit time
   (k-means, Section 4.1),
3. organizes each class into a small-to-large ring (Observation 2),
4. broadcasts the global model to all of ``S``,
5. lets the event engine run the ring training for the round duration —
   each device trains the newest model in its buffer and forwards it;
   devices never idle (Eq. 6/7),
6. collects every participant's last trained model and aggregates with
   uniform (Eq. 9) or class-time (Eq. 10) weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aggregation import class_time_weighted_average, uniform_average
from repro.core.clustering import cluster_by_capacity
from repro.core.registry import register_method
from repro.core.ring import RING_ORDERS, build_rings
from repro.core.server import FederatedServer, ServerConfig
from repro.datasets.core import ClassificationDataset
from repro.device.fleet import DeviceFleet
from repro.env.environment import Environment
from repro.simulation.engine import RingRoundEngine
from repro.utils.config import validate_positive
from repro.utils.logging import RunLogger

__all__ = ["FedHiSynConfig", "FedHiSynServer"]


@dataclass
class FedHiSynConfig(ServerConfig):
    """FedHiSyn hyper-parameters on top of the shared server settings.

    The paper sets ``num_classes=10`` at 50%/100% participation and ``2``
    at 10% (Section 6.1); ``aggregation`` selects Eq. 9 ("uniform") or
    Eq. 10 ("class_time").
    """

    num_classes: int = 10
    ring_order: str = "small_to_large"
    aggregation: str = "uniform"
    combine: str = "direct"  # "average" reproduces the Fig. 2 ablation
    clustering_method: str = "kmeans"
    round_length_multiplier: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_classes <= 0:
            raise ValueError(f"num_classes must be positive, got {self.num_classes}")
        if self.ring_order not in RING_ORDERS:
            raise ValueError(f"ring_order must be one of {RING_ORDERS}")
        if self.aggregation not in ("uniform", "class_time"):
            raise ValueError("aggregation must be 'uniform' or 'class_time'")
        if self.combine not in ("direct", "average"):
            raise ValueError("combine must be 'direct' or 'average'")
        validate_positive(self.round_length_multiplier, "round_length_multiplier")


@register_method(
    "fedhisyn",
    config=FedHiSynConfig,
    description="the paper's framework: capacity-clustered ring training",
)
class FedHiSynServer(FederatedServer):
    """The paper's framework (Algorithm 1)."""

    method = "fedhisyn"
    config_cls = FedHiSynConfig

    def __init__(
        self,
        devices: DeviceFleet,
        test_set: ClassificationDataset,
        config: FedHiSynConfig | None = None,
        logger: RunLogger | None = None,
        env: Environment | None = None,
    ) -> None:
        super().__init__(devices, test_set, config, logger, env=env)
        # Ring hops cross the same network as the server channel.
        # drop_seed ties peer-hop loss draws to the experiment seed so
        # seed replicates see independent drop patterns (matching the
        # server channel's seeded drop stream).
        self.engine = RingRoundEngine(
            self.fleet,
            self.env.network,
            epochs_per_unit=self.config.local_epochs,
            combine=self.config.combine,
            drop_seed=self.config.seed,
        )
        self.last_round_stats = None

    def run_round(
        self,
        round_idx: int,
        ids: np.ndarray,
        global_weights: np.ndarray,
    ) -> np.ndarray:
        cfg: FedHiSynConfig = self.config  # type: ignore[assignment]
        times = self._unit_times[ids]

        # (1) capacity classes, fastest first (Alg 1 line 4).
        classes = cluster_by_capacity(
            times, min(cfg.num_classes, len(ids)), method=cfg.clustering_method
        )
        # (2) one ring per class (lines 5-6).
        rings = build_rings(
            classes,
            ids,
            times,
            order=cfg.ring_order,
            seed=self._seeds.generator(round_idx, 2),
        )

        # (3) broadcast: one model down per participant.  A device whose
        # pull is lost enters its ring on its previous round's model
        # instead — a lost message is harmless to liveness (Eq. 7).
        # Under a codec everyone who received starts from the decoded view.
        receivers, view = self.broadcast_model(ids, global_weights)
        start = self.start_views(ids, receivers, view)
        # Ring results snapshot into the round arena, which then is the
        # upload stack below.
        self.fleet.round_matrix(ids)

        # (4) ring training for the round duration (lines 7-16).  Ring
        # forwards compress against the round's shared broadcast view;
        # after a lossy broadcast there is no shared reference and the
        # hops go dense (codec_reference=None).  Completion waves train on
        # the server's own batched trainer.
        duration = self.round_duration(ids) * cfg.round_length_multiplier
        shared_view = view if not isinstance(start, dict) else None
        stats = self.engine.run_round(
            rings, start, duration, round_idx,
            codec=self.codec, codec_reference=shared_view,
            batched=self.batched_trainer,
        )
        self.last_round_stats = stats
        # One meter entry for the whole round's hops: on-wire units from
        # the engine, raw (uncompressed) units = hop count.
        self.peer_send(
            1, model_units=stats.peer_units, raw_units=float(stats.peer_sends)
        )
        self.clock.advance_by(duration)

        # (5) synchronous upload + aggregation (line 17).
        stack = self.fleet.stack_weights(ids)
        if self.env.network.drop_prob > 0.0:
            # Each participant's last trained model, for the start_views
            # fallback of a later round whose pull it loses.  Fresh rows:
            # this round's start dict still holds the ones they replace.
            self.device_history.update(
                (dev_id, row.copy()) for dev_id, row in zip(ids.tolist(), stack)
            )
        # Uplink reference: the shared view, or the per-device start dict
        # after a lossy broadcast (collect_models resolves it per sender).
        arrived, stack = self.collect_models(ids, stack, reference=start)
        if cfg.aggregation == "class_time":
            # Each participant's weight is its class's mean unit time;
            # ``classes`` holds positions into the participant order, so
            # this fills the weight vector class-by-class, vectorized.
            weights_vec = np.empty(len(ids))
            for cls in classes:
                weights_vec[cls] = times[cls].mean()
            stack, weights_vec = self.filter_arrived(arrived, stack, weights_vec)
            return class_time_weighted_average(stack, weights_vec)
        (stack,) = self.filter_arrived(arrived, stack)
        return uniform_average(stack)
