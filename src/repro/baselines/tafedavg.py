"""TAFedAvg baseline: fully asynchronous FedAvg.

"Each device uploads its local model to the server just after finishing its
own training process.  The server is responsible for accepting the new
models and aggregating them to the original model" (Section 6.1).

Within a reporting round of duration R, every upload event mixes the
device's model into the global with a constant rate ``alpha`` and the
server immediately returns the updated global to the device — so a fast
device cycles ~H times per round while a slow one cycles once, training on
increasingly *stale* views of the global model.  That staleness is exactly
the failure mode the paper observes at low participation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.registry import register_method
from repro.core.server import FederatedServer, ServerConfig
from repro.device.batched import run_units
from repro.simulation.engine import async_upload_schedule
from repro.utils.config import validate_fraction, validate_non_negative

__all__ = ["TAFedAvgConfig", "TAFedAvgServer"]


@dataclass
class TAFedAvgConfig(ServerConfig):
    """``alpha``: base server mixing rate per upload (FedAsync-style).

    ``staleness_exponent`` > 0 enables FedAsync's polynomial staleness
    damping [Xie et al. 2019, cited by the paper]: an upload computed
    against a global model that has since absorbed ``s`` other uploads is
    mixed with rate ``alpha * (1 + s) ** -staleness_exponent``, so stale
    contributions from slow devices move the global model less.
    """

    alpha: float = 0.1
    staleness_exponent: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        validate_fraction(self.alpha, "alpha")
        validate_non_negative(self.staleness_exponent, "staleness_exponent")


@register_method(
    "tafedavg",
    config=TAFedAvgConfig,
    description="fully asynchronous FedAvg: immediate staleness-weighted mixing",
)
class TAFedAvgServer(FederatedServer):
    method = "tafedavg"

    def run_round(
        self,
        round_idx: int,
        ids: np.ndarray,
        global_weights: np.ndarray,
    ) -> np.ndarray:
        cfg: TAFedAvgConfig = self.config  # type: ignore[assignment]
        duration = self.round_duration(ids)
        id_list = ids.tolist()
        # Only a lossy downlink reads a device's last model back
        # (start_views); each unit's result is then its history row.
        lossy = self.env.network.drop_prob > 0.0

        # Round start: every participant pulls the current global model; a
        # device whose pull is lost keeps training its previous weights,
        # unit after unit, until a reply reaches it (``on_own``).  Under a
        # codec the pull delivers the decoded broadcast view.
        receivers, view0 = self.broadcast_model(ids, global_weights)
        views = self.start_views(ids, receivers, view0)
        if isinstance(views, dict):
            local_view = views
            on_own = {d for d, v in views.items() if v is not view0}
        else:
            local_view = dict.fromkeys(id_list, view0)
            on_own = set()
        unit_counter = dict.fromkeys(id_list, 0)
        # Server version counter for staleness: the version each device's
        # view was taken at, vs the version at its upload.
        version = 0
        view_version = dict.fromkeys(id_list, 0)

        schedule = async_upload_schedule(
            dict(zip(id_list, self._unit_times[ids].tolist())), duration
        )
        current = global_weights
        for _time, dev_id in schedule:
            # Each unit starts from the device's latest mix, so every wave
            # has one member.
            start = local_view[dev_id]
            out = np.empty((1, self.trainer.dim))
            run_units(
                self.batched_trainer,
                self.fleet,
                np.array([dev_id], dtype=np.intp),
                cfg.local_epochs,
                round_idx,
                start,
                out,
                unit_idx=unit_counter[dev_id],
            )
            unit_counter[dev_id] += 1
            # ``trained`` is fresh and never written again, so the rows it
            # replaces stay what they were for whoever still holds them.
            trained = out[0]
            if lossy:
                self.device_history[dev_id] = trained
            if dev_id in on_own:
                local_view[dev_id] = trained
            # The upload and the reply each cross the device's own link;
            # their transfer times extend the round.
            uploaded, seconds = self.link_send(dev_id, trained, up_from=start)
            self.clock.advance_by(seconds)
            if uploaded is None:
                continue  # upload lost: the global model never sees it
            rate = cfg.alpha
            if cfg.staleness_exponent > 0:
                staleness = version - view_version[dev_id]
                rate = cfg.alpha * (1.0 + staleness) ** -cfg.staleness_exponent
            current = (1.0 - rate) * current + rate * uploaded
            version += 1
            # Server replies with the fresh global; device trains it next
            # (a lost reply leaves the device on its stale view).
            reply, seconds = self.link_send(dev_id, current)
            self.clock.advance_by(seconds)
            if reply is not None:
                local_view[dev_id] = reply
                view_version[dev_id] = version
                on_own.discard(dev_id)

        self.clock.advance_by(duration)
        return current
