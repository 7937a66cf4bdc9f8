"""The default transport: in-process training, simulated channels.

``SimTransport`` moves no bytes: a broadcast ships nothing, a round's
training runs in-process as one wave, and an upload's every sender is
present, each row encoded and decoded through the server's codec.  The
server's channel does all the accounting (metering, clock charges,
simulated drops) for this backend exactly as for the live one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.device.batched import run_units
from repro.transport.base import Transport
from repro.transport.registry import register_transport

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.compression.base import Encoded
    from repro.core.server import FederatedServer

__all__ = ["SimTransport"]


@register_transport(
    "sim", "discrete-event simulator (default): in-process, bit-identical"
)
class SimTransport(Transport):
    """Everything stays inside the coordinator process."""

    name = "sim"
    description = (
        "in-process discrete-event execution; the no-op default, "
        "bit-identical to pre-transport runs"
    )

    def downlink(
        self,
        server: "FederatedServer",
        weights: np.ndarray,
        enc: "Encoded | None",
        view: np.ndarray,
    ) -> None:
        """In-process receivers read ``view`` directly: nothing moves."""

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

    def uplink(
        self,
        server: "FederatedServer",
        ids: np.ndarray,
        stack: np.ndarray,
        reference: np.ndarray | dict[int, np.ndarray] | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Every sender is present.  Under the identity codec the server
        reads ``stack`` itself; otherwise each row makes one codec
        round-trip against its sender's reference (a dict is keyed by
        device id) into a fresh stack."""
        present = np.arange(len(ids))
        codec = server.codec
        if codec.is_identity:
            return present, stack, None
        decoded = np.empty((len(ids), stack.shape[1]), dtype=np.float64)
        units = np.empty(len(ids), dtype=np.float64)
        by_id = reference if isinstance(reference, dict) else None
        for i, dev_id in enumerate(ids.tolist()):
            ref = by_id.get(dev_id) if by_id is not None else reference
            _, decoded[i], units[i] = codec.transmit(stack[i], dev_id, ref)
        return present, decoded, units
