"""The default transport: in-process training, simulated channels.

``SimTransport`` is the bit-identical no-op backend: the server's own
channel methods keep doing all the work (metering, clock charges, codec
transforms, simulated drops) and only the round's training is delegated
here, as one in-process wave.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.device.batched import run_units
from repro.transport.base import Transport
from repro.transport.registry import register_transport

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.server import FederatedServer

__all__ = ["SimTransport"]


@register_transport(
    "sim", "discrete-event simulator (default): in-process, bit-identical"
)
class SimTransport(Transport):
    """Everything stays inside the coordinator process."""

    name = "sim"
    is_sim = True
    description = (
        "in-process discrete-event execution; the no-op default, "
        "bit-identical to pre-transport runs"
    )

    def train_round(
        self,
        server: "FederatedServer",
        ids: np.ndarray,
        stack: np.ndarray,
        epochs: np.ndarray,
        round_idx: int,
        global_weights: np.ndarray,
        anchor: np.ndarray | None = None,
        mu: float = 0.0,
    ) -> None:
        """One training unit per device in ``ids``, results into ``stack``
        rows.

        The FedAvg-family inner loop: the round is one
        :func:`~repro.device.batched.run_units` wave on the server's own
        batched trainer, straight into ``stack`` — the round arena's
        registered rows, so results land in device state with no copy.
        """
        run_units(
            server.batched_trainer,
            server.fleet,
            ids,
            epochs,
            round_idx,
            global_weights,
            stack,
            anchor=anchor,
            mu=mu,
        )
