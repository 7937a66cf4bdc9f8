"""FedAT baseline (Chai et al., SC'21): synchronous tiers, asynchronous
cross-tier updates.

Devices are clustered into ``num_tiers`` capacity tiers (same 1-D k-means
the paper's own framework uses).  A tier runs an internal synchronous
FedAvg round that lasts as long as its *own* slowest member — so fast
tiers complete several tier-rounds while the slowest completes one.  Each
tier-round uploads a tier model, and the server rebuilds the global model
as a cross-tier weighted average that favours *less frequently updating*
(slower) tiers, FedAT's inverse-frequency compensation for update-rate
bias.

Tier identity is **stable across rounds**: the fleet is clustered once at
construction (unit times never change), and each round's participants are
grouped by their fixed tier.  Clustering the per-round participant list
instead — as the seed code did — made "tier m" mean a different device
population from round to round under partial participation, silently
averaging unrelated models in ``_tier_models``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.aggregation import sample_weighted_average, weighted_average
from repro.core.clustering import cluster_by_capacity
from repro.core.registry import register_method
from repro.core.server import FederatedServer, ServerConfig
from repro.device.batched import run_units
from repro.simulation.engine import async_upload_schedule

__all__ = ["FedATConfig", "FedATServer"]


@dataclass
class FedATConfig(ServerConfig):
    """``num_tiers``: number of capacity tiers (FedAT's M)."""

    num_tiers: int = 5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_tiers <= 0:
            raise ValueError(f"num_tiers must be positive, got {self.num_tiers}")


@register_method(
    "fedat",
    config=FedATConfig,
    description="capacity tiers: synchronous inside, asynchronous across",
)
class FedATServer(FederatedServer):
    method = "fedat"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Fixed fleet-wide tier assignment (tier 0 = fastest).  Keying the
        # cross-round tier state by this stable id — not by the index of a
        # per-round re-clustering — is what keeps ``_tier_models[m]`` the
        # history of one device population under partial participation.
        # The assignment is computed from the population's unit-time
        # *array* (no per-device objects) and kept both as a dense array
        # (``tier_of[device_id]``, the fleet-scale lookup — ids equal
        # positions) and as the ``device_tier`` dict the original API
        # exposed.
        num_tiers = getattr(self.config, "num_tiers", 5)
        n = len(self.fleet)
        classes = cluster_by_capacity(self._unit_times, min(num_tiers, n))
        tiers = np.empty(n, dtype=np.intp)
        for tier_idx, members in enumerate(classes):
            tiers[members] = tier_idx
        self.tier_of = tiers
        self.device_tier: dict[int, int] = dict(enumerate(tiers.tolist()))
        self._tier_models: dict[int, np.ndarray] = {}
        self._tier_update_counts: dict[int, int] = {}

    def _cross_tier_average(self, fallback: np.ndarray) -> np.ndarray:
        """Weighted average of tier models, favouring slow tiers.

        Weight of tier m is ``1 + max_count - count_m`` so the least
        frequently updated tier weighs the most (FedAT Section 3.2's
        inverse-frequency idea in its simplest monotone form).
        """
        if not self._tier_models:
            return fallback
        tiers = sorted(self._tier_models)
        counts = np.array([self._tier_update_counts[t] for t in tiers], dtype=float)
        weights = 1.0 + counts.max() - counts
        stack = np.stack([self._tier_models[t] for t in tiers])
        return weighted_average(stack, weights)

    def run_round(
        self,
        round_idx: int,
        ids: np.ndarray,
        global_weights: np.ndarray,
    ) -> np.ndarray:
        cfg: FedATConfig = self.config  # type: ignore[assignment]
        duration = self.round_duration(ids)
        # Register this round's weight rows up front: every tier-round
        # result snapshots into the recycled round arena.
        self.fleet.round_matrix(ids)

        # This round's participants grouped by their stable tier, in
        # participant order; absent tiers simply run no tier-round.  The
        # dense array resolves the whole participant set in one gather.
        tiers = self.tier_of[ids]
        members_by_tier = {int(t): ids[tiers == t] for t in np.unique(tiers)}

        current = global_weights
        # Tier-round completion times over this reporting round: tier m
        # finishes a tier-round every max-unit-time-in-tier (among the
        # members actually present this round).
        tier_span = {
            t: float(self._unit_times[members].max())
            for t, members in members_by_tier.items()
        }
        schedule = async_upload_schedule(tier_span, duration)

        unit_counter = dict.fromkeys(ids.tolist(), 0)
        for _time, tier_idx in schedule:
            members = members_by_tier[tier_idx]
            # Tier-synchronous FedAvg round from the current global model
            # (the decoded broadcast view when a codec is active).
            receivers, tier_view = self.broadcast_model(
                members, current, ensure_one=False
            )
            if not len(receivers):
                continue  # every pull lost: the tier idles this slot
            # The tier-round is one wave: a shared start, one unit each.
            id_list = receivers.tolist()
            stack = np.empty((len(receivers), self.trainer.dim))
            run_units(
                self.batched_trainer,
                self.fleet,
                receivers,
                cfg.local_epochs,
                round_idx,
                tier_view,
                stack,
                unit_idx=[unit_counter[i] for i in id_list],
                sync=True,
            )
            for i in id_list:
                unit_counter[i] += 1
            arrived, stack = self.collect_models(
                receivers, stack, reference=tier_view, ensure_one=False
            )
            if not len(arrived):
                continue  # every upload lost: no tier model this slot
            counts = self.fleet.num_samples[receivers]
            stack, counts = self.filter_arrived(arrived, stack, counts)
            self._tier_models[tier_idx] = sample_weighted_average(stack, counts)
            self._tier_update_counts[tier_idx] = (
                self._tier_update_counts.get(tier_idx, 0) + 1
            )
            current = self._cross_tier_average(current)

        self.clock.advance_by(duration)
        return current
