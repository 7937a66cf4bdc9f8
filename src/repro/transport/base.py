"""The Transport interface: who executes a round's device training, and
over what medium the model bytes move.

A transport backend sits *behind* the server's channel API.  The default
:class:`~repro.transport.sim.SimTransport` executes training in-process
and moves nothing — the discrete-event simulator's semantics, bit-
identical to every run that predates the transport layer.  The
:class:`~repro.transport.live.LiveTransport` executes the same
``ExperimentSpec`` as real OS processes exchanging UDP datagrams.  The
seam: the transport moves bytes; the server's channel
(``broadcast_model``/``collect_models``) is the only accounting — it
meters, charges the virtual clock, draws drops and moves the downlink
codec reference for every backend, which is what makes sim and live
runs cross-validate (down to bit-identity for lossless codecs).

A backend supplies only what differs between backends, through three
hooks that, like the channel, speak device-id arrays:

* :meth:`Transport.downlink` — ship a broadcast's payload (sim: nothing
  moves; live: one chunked transfer to every worker).
* :meth:`Transport.train_round` — run one training unit per receiver id,
  results landing in the round's stacked rows.  Sim trains in-process;
  live ships the round to the worker processes owning those devices and
  reassembles their uploads.
* :meth:`Transport.uplink` — report an upload's present senders (the
  ascending indices whose bytes arrived), the stack the server
  reconstructs from them and their wire sizes.  Sim encodes every row
  through the codec; live reads what ``train_round`` reassembled.

Lifecycle: :meth:`bind` attaches the backend to a built server (and
validates the spec), :meth:`start` brings up any real infrastructure,
:meth:`shutdown` tears it down — both no-ops for sim, both idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.compression.base import Encoded
    from repro.core.server import FederatedServer

__all__ = ["LiveTransportStats", "Transport"]


@dataclass
class LiveTransportStats:
    """Exact datagram-level accounting for one live run.

    ``payload_bytes_*`` counts chunk payloads only (the codec bytes the
    simulator also charges); ``datagrams_*`` counts every frame incl.
    headers, acks and heartbeats.  :meth:`snapshot` is folded into
    ``RunResult.transport`` under ``live_``-prefixed keys.
    """

    datagrams_sent: int = 0
    datagrams_received: int = 0
    payload_bytes_sent: int = 0
    payload_bytes_received: int = 0
    retransmits: int = 0
    reassembly_failures: int = 0
    heartbeat_misses: int = 0
    workers_parked: int = 0
    workers_rejoined: int = 0
    rounds_dispatched: int = 0

    def snapshot(self) -> dict[str, float]:
        return {f"live_{f.name}": getattr(self, f.name) for f in fields(self)}


class Transport:
    """Base class: lifecycle + the per-round execution hooks."""

    name = "base"
    description = ""

    # ------------------------------------------------------------ lifecycle

    def bind(self, server: "FederatedServer", spec: Any = None) -> None:
        """Attach to a built server (before :meth:`start`)."""
        self.server = server
        self.spec = spec

    def validate_spec(self, spec: Any) -> None:
        """Raise ``ValueError`` when ``spec`` cannot run on this backend.

        Called during ``ExperimentSpec`` validation so an unsupported
        method/env/fault combination fails at spec time, not mid-run.
        """

    def start(self) -> None:
        """Bring up real infrastructure (live: spawn workers).  No-op for
        purely simulated backends; idempotent."""

    def shutdown(self) -> None:
        """Tear everything down; never raises, safe to call twice."""

    # ---------------------------------------------------------------- hooks

    def downlink(
        self,
        server: "FederatedServer",
        weights: np.ndarray,
        enc: "Encoded | None",
        view: np.ndarray,
    ) -> None:
        """Ship a broadcast, after the channel accounted for it: ``enc``
        is the encoded payload (None under the identity codec, where
        ``weights`` themselves go), ``view`` what receivers decode."""
        raise NotImplementedError

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
        raise NotImplementedError

    def uplink(
        self,
        server: "FederatedServer",
        ids: np.ndarray,
        stack: np.ndarray,
        reference: np.ndarray | dict[int, np.ndarray] | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(present, decoded, wire_units)`` of an upload of ``stack``'s
        rows: the ascending indices into ``ids`` whose bytes reached the
        server, the stack it reconstructs, and each present sender's
        wire size in model units (None under the identity codec)."""
        raise NotImplementedError

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict[str, float]:
        """Backend accounting folded into ``RunResult.transport``; empty
        for the simulator (the meter already tells the whole story)."""
        return {}

    def describe(self) -> str:
        """One-line summary for ``repro list transports``."""
        return self.description or self.name

