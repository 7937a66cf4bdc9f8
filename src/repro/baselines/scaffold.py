"""SCAFFOLD baseline (Karimireddy et al., 2020).

Synchronous rounds with control variates: each device SGD step uses the
corrected gradient ``g + c - c_i`` where ``c`` is the server variate and
``c_i`` the device's.  After local training the device refreshes its
variate with SCAFFOLD's "option II",

    c_i+ = c_i - c + (x - y_i) / (K * eta),

and the server applies

    x   += (lr_g / |S|) * sum_i (y_i - x)
    c   += (|S| / N)    * mean_i (c_i+ - c_i).

Every device<->server transfer carries the model *and* a variate, so the
meter records two model units per transfer — the paper halves SCAFFOLD's
reported rounds for the same reason (Section 6.1, Metrics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.registry import register_method
from repro.core.server import FederatedServer, ServerConfig
from repro.device.batched import run_units
from repro.device.fleet import FleetState
from repro.utils.config import validate_positive

__all__ = ["ScaffoldConfig", "ScaffoldServer"]


@dataclass
class ScaffoldConfig(ServerConfig):
    """``global_lr``: server step size on the aggregated model delta."""

    global_lr: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        validate_positive(self.global_lr, "global_lr")


@register_method(
    "scaffold",
    config=ScaffoldConfig,
    description="synchronous control variates; each transfer costs 2 model units",
)
class ScaffoldServer(FederatedServer):
    method = "scaffold"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        dim = self.trainer.dim
        self.server_variate = np.zeros(dim)
        # Control variates live in a fleet-owned lazy state pool keyed by
        # stable device id: an idle device costs nothing (reads resolve to
        # one shared zeros row), a deselected-then-reselected device finds
        # its variate untouched.
        self.device_variates = FleetState(self.fleet.num_devices, dim)

    def run_round(
        self,
        round_idx: int,
        ids: np.ndarray,
        global_weights: np.ndarray,
    ) -> np.ndarray:
        cfg: ScaffoldConfig = self.config  # type: ignore[assignment]
        duration = self.round_duration(ids)
        eta = self.trainer.lr

        # Broadcast model + server variate: 2 model units per participant.
        # Only the model goes through the codec; the variate rides along
        # dense as one extra unit (server state, not a model update).
        receivers, view = self.broadcast_model(
            ids, global_weights, extra_units=1.0
        )

        # Per-device updates are staged and only summed for the uploads
        # that reach the server; a device whose upload is lost still keeps
        # its locally refreshed variate (it did the training).  Trained
        # models land in the round's fleet rows (`out=`), so device state
        # costs no extra copies.  The round is one wave: the receivers'
        # variates stack into one (P, dim) correction matrix c - c_i, and
        # the option-II refresh runs as whole-matrix ops whose row i sees
        # exactly the float ops of a per-device refresh.
        rows = self.fleet.round_matrix(receivers)
        c_stack = np.empty((len(receivers), self.trainer.dim))
        for i, dev_id in enumerate(receivers.tolist()):
            np.copyto(c_stack[i], self.device_variates.row(dev_id))
        steps = run_units(
            self.batched_trainer,
            self.fleet,
            receivers,
            self.epochs_for(receivers, duration),
            round_idx,
            view,
            rows,
            corrections=np.subtract(self.server_variate, c_stack),
        )
        # Option II variate refresh, anchored on the received model.
        denom = steps.astype(np.float64) * eta
        c_plus = c_stack - self.server_variate + (view - rows) / denom[:, None]
        variate_deltas = c_plus - c_stack
        for i, dev_id in enumerate(receivers.tolist()):
            self.device_variates.set(dev_id, c_plus[i])

        arrived, decoded = self.collect_models(
            receivers, rows, reference=view, extra_units=1.0
        )
        self.clock.advance_by(duration)

        delta_model = np.zeros_like(global_weights)
        delta_variate = np.zeros_like(self.server_variate)
        for i in arrived:
            delta_model += decoded[i] - view
            delta_variate += variate_deltas[i]
        s = len(arrived)
        new_global = global_weights + cfg.global_lr * delta_model / s
        self.server_variate = self.server_variate + delta_variate / self.fleet.num_devices
        return new_global
