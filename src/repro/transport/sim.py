"""The default transport: in-process training, simulated channels.

``SimTransport`` is the bit-identical no-op backend: the server's own
channel methods keep doing all the work (metering, clock charges, codec
transforms, simulated drops) and only the round's training loop is
delegated here — the exact loop the server ran before the transport
layer existed, moved verbatim.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.transport.base import Transport
from repro.transport.registry import register_transport

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.server import FederatedServer
    from repro.device.device import Device

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
        receivers: "list[Device]",
        stack: np.ndarray,
        epochs: np.ndarray,
        round_idx: int,
        global_weights: np.ndarray,
        anchor: np.ndarray | None = None,
        mu: float = 0.0,
    ) -> None:
        """One training unit per receiver, results into ``stack`` rows.

        The FedAvg-family inner loop.  With live fleet rows the loop runs
        straight against the trainer — shard slices and stream keys come
        from fleet arrays, no facade attribute chasing, and the trained
        vector lands in the device's registered row.  Otherwise the
        classic ``run_unit`` choreography keeps every Device contract
        intact (including the ``weights`` snapshot for drop-fallback).

        When the server carries a :class:`~repro.device.batched.BatchedTrainer`
        (``device_batching="auto"`` on a batchable model), the whole round
        trains as stacked GEMMs in one call; under retained fleet storage the
        per-device ``weights`` snapshots are synced afterwards, exactly as
        ``run_unit`` would have.
        """
        bt = server.batched_trainer
        if bt is not None:
            bt.train_round(
                server.ids_of(receivers),
                epochs,
                round_idx,
                global_weights,
                out=stack,
                anchor=anchor,
                mu=mu,
            )
            if not server.rows_live:
                for i, dev in enumerate(receivers):
                    dev.weights = stack[i]
            return
        if server.rows_live:
            train = server.trainer.train
            shard = server.fleet.shard
            for i, dev_id in enumerate(server.ids_of(receivers).tolist()):
                train(
                    global_weights,
                    shard(dev_id),
                    int(epochs[i]),
                    stream_key=(dev_id, round_idx, 0),
                    anchor=anchor,
                    mu=mu,
                    out=stack[i],
                )
            return
        for i, dev in enumerate(receivers):
            dev.run_unit(
                global_weights,
                int(epochs[i]),
                round_idx,
                0,
                anchor=anchor,
                mu=mu,
                out=stack[i],
            )
