"""The Environment: one object describing the world outside the algorithm.

An :class:`Environment` bundles a :class:`~repro.env.network.NetworkModel`
(link latency, bandwidth, message loss) with an
:class:`~repro.env.availability.AvailabilityModel` (device churn).  The
server's channel API (:meth:`FederatedServer.broadcast_model` /
:meth:`~FederatedServer.collect_models` /
:meth:`~FederatedServer.peer_send`)
reads transfer times and drop probabilities from it; participant sampling
filters through :meth:`Environment.available_ids`; the FedHiSyn ring engine
uses the same network model for peer hops.

The contract that keeps experiments comparable:

* ``Environment.ideal()`` — instant lossless links, always-on devices —
  reproduces the paper's semantics **bit-for-bit**: no rng stream is
  touched, no transfer time is charged, no message is dropped.
* Any other environment only ever *removes* messages/participants or
  *adds* virtual time; the training mathematics per delivered model is
  untouched.
"""

from __future__ import annotations

import numpy as np

from repro.env.availability import AlwaysOn, AvailabilityModel
from repro.env.network import NetworkModel

__all__ = ["Environment"]


class Environment:
    """Network conditions + device availability for one simulated world."""

    def __init__(
        self,
        network: NetworkModel | None = None,
        availability: AvailabilityModel | None = None,
        name: str = "custom",
    ) -> None:
        self.network = network if network is not None else NetworkModel()
        self.availability = (
            availability if availability is not None else AlwaysOn()
        )
        if not isinstance(self.network, NetworkModel):
            raise ValueError(
                f"network must be a NetworkModel, got {type(self.network).__name__}"
            )
        if not isinstance(self.availability, AvailabilityModel):
            raise ValueError(
                "availability must be an AvailabilityModel, "
                f"got {type(self.availability).__name__}"
            )
        self.name = name

    @classmethod
    def ideal(cls) -> "Environment":
        """Paper semantics: the default environment of every server."""
        return cls(NetworkModel(), AlwaysOn(), name="ideal")

    # ------------------------------------------------------------ queries

    def available_ids(
        self,
        round_idx: int,
        device_ids: np.ndarray,
        unit_times: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Online subset of ``device_ids`` this round — never empty.

        ``unit_times`` is aligned with ``device_ids`` (what capacity-aware
        models read).  An all-offline draw falls back to one rng-chosen
        device: a round with zero participants would stall every method,
        and in practice a server simply waits for the first device to
        reappear.
        """
        device_ids = np.asarray(device_ids, dtype=np.intp)
        if not len(device_ids) or self.availability.always_on:
            return device_ids
        mask = self.online_mask_ids(round_idx, device_ids, unit_times, rng)
        return device_ids[mask]

    def online_mask_ids(
        self,
        round_idx: int,
        device_ids: np.ndarray,
        unit_times: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Boolean online mask over ``device_ids`` — never all-False.

        The mask form of :meth:`available_ids`, with **identical rng
        draws** (one model draw, plus the same fallback draw when every
        device came up offline).  Callers that keep population-sized
        state — the async server's churn epochs — diff this mask against
        the previous one and touch only the devices whose state actually
        flips, instead of rebuilding membership sets each epoch.
        """
        n = len(device_ids)
        if not n or self.availability.always_on:
            return np.ones(n, dtype=bool)
        mask = np.asarray(
            self.availability.available_mask_ids(
                round_idx, device_ids, unit_times, rng
            ),
            dtype=bool,
        )
        if not mask.any():
            # The all-offline fallback: one rng-chosen device stays up.
            mask = mask.copy()
            mask[int(rng.integers(n))] = True
        return mask

    def server_transfer_time_ids(
        self, device_ids: np.ndarray, model_units: float | np.ndarray = 1.0
    ) -> float:
        """Time until the slowest server↔device link finishes one transfer.

        Links are symmetric, so this serves both broadcast (down) and
        collect (up).  ``model_units`` may be an array aligned with
        ``device_ids`` (codec uploads size per sender).
        """
        net = self.network
        if net.is_instant or not len(device_ids):
            return 0.0
        return float(net.server_transfer_times(device_ids, model_units).max())

    def describe(self) -> str:
        """One-line summary for ``repro list envs``."""
        return (
            f"network={type(self.network).__name__} "
            f"drop={self.network.drop_prob:g} "
            f"availability={type(self.availability).__name__}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Environment({self.name!r}: {self.describe()})"
