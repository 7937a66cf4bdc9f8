"""The network model: per-link latency, bandwidth and message loss.

One :class:`NetworkModel` serves every link of a run: server↔device
transfers (the server is the :data:`SERVER` endpoint), FedHiSyn ring hops
and the link term ``D_{i,i+1}`` of the Eq. 5 ring metric.  A transfer of
``u`` model units over a link takes ``latency + u / bandwidth`` (bandwidth
in models per unit of virtual time); every message is independently lost
with probability ``drop_prob``.  ``NetworkModel()`` is the paper's ideal
network: instant, lossless links everywhere.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.config import validate_non_negative

__all__ = ["SERVER", "NetworkModel"]

#: Link endpoint denoting the central server (device ids are >= 0).
SERVER = -1

#: The server's (latency multiplier, bandwidth divisor): never sampled.
_SERVER_FACTORS = (1.0, 1.0)


def _validate_bandwidth(value: float, name: str) -> float:
    """Bandwidth is models per virtual-time unit; zero would make every
    transfer take forever, so it is rejected rather than silently producing
    infinite round times (``math.inf`` means an instant link)."""
    if not value > 0:
        raise ValueError(
            f"{name} must be positive (models per time unit); "
            f"use math.inf for instant links, got {value}"
        )
    return float(value)


class NetworkModel:
    """Transfer times and loss for server↔device and peer links.

    ``latency``/``bandwidth`` describe server↔device links;
    ``peer_latency``/``peer_bandwidth`` default to the same values and
    govern device-to-device ring hops.

    Link quality may vary per device: each device draws a latency
    multiplier ``exp(N(0, latency_spread))`` and a bandwidth divisor
    ``exp(N(0, bandwidth_spread))`` from an RNG keyed by
    ``(seed, device_id)``, so a device's links look the same regardless of
    fleet size, round count or query order.  A link's latency is the base
    latency scaled by the mean of its endpoints' multipliers, its
    bandwidth the base divided by the mean of their divisors (the server's
    factors are 1).
    """

    def __init__(
        self,
        latency: float = 0.0,
        bandwidth: float = math.inf,
        drop_prob: float = 0.0,
        peer_latency: float | None = None,
        peer_bandwidth: float | None = None,
        latency_spread: float = 0.0,
        bandwidth_spread: float = 0.0,
        seed: int = 0,
    ) -> None:
        validate_non_negative(latency, "latency")
        _validate_bandwidth(bandwidth, "bandwidth")
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError(f"drop_prob must be in [0, 1), got {drop_prob}")
        validate_non_negative(latency_spread, "latency_spread")
        validate_non_negative(bandwidth_spread, "bandwidth_spread")
        self._latency = float(latency)
        self._bandwidth = float(bandwidth)
        self.drop_prob = float(drop_prob)
        self._peer_latency = (
            self._latency if peer_latency is None
            else float(validate_non_negative(peer_latency, "peer_latency"))
        )
        self._peer_bandwidth = (
            self._bandwidth if peer_bandwidth is None
            else _validate_bandwidth(peer_bandwidth, "peer_bandwidth")
        )
        self.latency_spread = float(latency_spread)
        self.bandwidth_spread = float(bandwidth_spread)
        self.seed = int(seed)
        # Row i holds device i's (latency multiplier, bandwidth divisor);
        # NaN = not yet drawn.  Grown on demand and filled once per device,
        # so a vectorized server_transfer_times is pure array indexing.
        self._factor_table = np.full((0, 2), np.nan)

    @property
    def is_instant(self) -> bool:
        """True when every link is zero-latency and infinite-bandwidth —
        lets the channel layer skip per-transfer work under ``ideal``.
        Spreads only scale the base values; dropping does not slow links."""
        return (
            self._latency == 0.0
            and self._peer_latency == 0.0
            and self._bandwidth == math.inf
            and self._peer_bandwidth == math.inf
        )

    # ------------------------------------------------------- link factors

    def _factor_rows(self, device_ids: np.ndarray) -> np.ndarray:
        """``(len(device_ids), 2)`` factors, drawing each device's once."""
        table = self._factor_table
        top = int(device_ids.max()) + 1 if len(device_ids) else 0
        if top > table.shape[0]:
            grown = np.full((top, 2), np.nan)
            grown[: table.shape[0]] = table
            self._factor_table = table = grown
        for d in device_ids[np.isnan(table[device_ids, 0])].tolist():
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(d,))
            )
            lat_mult = float(np.exp(rng.normal(0.0, self.latency_spread))) \
                if self.latency_spread else 1.0
            bw_div = float(np.exp(rng.normal(0.0, self.bandwidth_spread))) \
                if self.bandwidth_spread else 1.0
            table[d] = (lat_mult, bw_div)
        return table[device_ids]

    def _endpoint_factors(self, endpoint: int) -> tuple[float, float]:
        """(latency multiplier, bandwidth divisor) of one link endpoint."""
        if endpoint == SERVER:
            return _SERVER_FACTORS
        table = self._factor_table
        if endpoint < len(table):
            lat_mult = table.item(endpoint, 0)
            if lat_mult == lat_mult:  # drawn already (not NaN)
                return lat_mult, table.item(endpoint, 1)
        lat_mult, bw_div = self._factor_rows(np.array([endpoint], dtype=np.intp))[0]
        return float(lat_mult), float(bw_div)

    # ------------------------------------------------------------- links

    def _link(self, src: int, dst: int) -> tuple[float, float]:
        """(latency, bandwidth) of the ``src -> dst`` link."""
        if src == SERVER or dst == SERVER:
            lat, bw = self._latency, self._bandwidth
        else:
            lat, bw = self._peer_latency, self._peer_bandwidth
        scale_lat = lat != 0.0 and self.latency_spread != 0.0
        scale_bw = bw != math.inf and self.bandwidth_spread != 0.0
        if scale_lat or scale_bw:
            m_src, d_src = self._endpoint_factors(src)
            m_dst, d_dst = self._endpoint_factors(dst)
            if scale_lat:
                lat = lat * 0.5 * (m_src + m_dst)
            if scale_bw:
                bw = bw / (0.5 * (d_src + d_dst))
        return lat, bw

    def bandwidth(self, src: int, dst: int) -> float:
        return self._link(src, dst)[1]

    def transfer_time(self, src: int, dst: int, model_units: float = 1.0) -> float:
        """Virtual time to move ``model_units`` across the ``src -> dst`` link."""
        lat, bw = self._link(src, dst)
        if bw == math.inf:
            return lat
        return lat + model_units / bw

    def server_transfer_times(
        self, device_ids: np.ndarray, model_units: float | np.ndarray = 1.0
    ) -> np.ndarray:
        """Per-device server-link transfer times as one vectorized read.

        The fleet server charges the slowest link of a broadcast/collect;
        a Python ``transfer_time`` call per device would make that O(n)
        interpreted work every channel call.  Mirrors
        ``transfer_time(SERVER, d)`` element for element (same op order,
        so the slowest-link max is bitwise equal to the scalar loop).
        ``model_units`` may be an array aligned with ``device_ids``
        (per-sender codec wire sizes).
        """
        device_ids = np.asarray(device_ids, dtype=np.intp)
        n = len(device_ids)
        lat_base = self._latency
        bw_base = self._bandwidth
        need_lat = lat_base != 0.0 and self.latency_spread != 0.0
        need_bw = bw_base != math.inf and self.bandwidth_spread != 0.0
        if need_lat or need_bw:
            factors = self._factor_rows(device_ids)
        if need_lat:
            lat = lat_base * 0.5 * (1.0 + factors[:, 0])
        else:
            lat = np.full(n, lat_base)
        if bw_base == math.inf:
            return lat
        if need_bw:
            bw = bw_base / (0.5 * (1.0 + factors[:, 1]))
        else:
            bw = np.full(n, bw_base)
        return lat + model_units / bw
