"""FedBuff (Nguyen et al., 2022): buffered asynchronous aggregation.

Uploads accumulate in a server-side buffer as model *deltas* (trained
minus the model the device actually started from), held as a running
staleness-weighted sum in preallocated vectors: one subtract, scale and
add per upload.  When the buffer
reaches its goal size K the server applies one aggregated step,

    w <- w + eta_g * sum_i(s_i * delta_i) / sum_i(s_i),

with per-entry staleness weights ``s_i = decay(staleness_i)`` — stale
updates leak through the same ``constant`` / ``polynomial`` / ``hinge``
hooks FedAsync uses, rather than being discarded.  Between flushes the
server still replies to every upload with the current global model, so
devices keep training near-fresh models while the buffer fills.

Buffering trades FedAsync's per-upload reactivity for an update whose
noise averages over K devices — the configuration that dominates
time-to-accuracy under heavy heterogeneity (fast devices fill the buffer
while stragglers would still be holding a synchronous round's barrier).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.async_server import AsyncFederatedServer, AsyncServerConfig
from repro.core.registry import register_method
from repro.utils.config import validate_positive

__all__ = ["FedBuffConfig", "FedBuffServer"]


@dataclass
class FedBuffConfig(AsyncServerConfig):
    """``buffer_goal``: uploads per aggregation (FedBuff's K);
    ``global_lr``: server step size on the buffered mean delta."""

    buffer_goal: int = 10
    global_lr: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.buffer_goal <= 0:
            raise ValueError(
                f"buffer_goal must be positive, got {self.buffer_goal}"
            )
        validate_positive(self.global_lr, "global_lr")


@register_method(
    "fedbuff",
    config=FedBuffConfig,
    description="async FL with a K-sized aggregation buffer and staleness leak",
)
class FedBuffServer(AsyncFederatedServer):
    method = "fedbuff"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # The buffer as a running sum: sum_i(s_i * delta_i) in ``_acc``,
        # sum_i(s_i) in ``_total``, ``_buffered`` uploads since the last
        # flush.  Accumulating from zero in arrival order is the float-op
        # order of ``sum(s * d) / sum(s)`` over a list of the entries
        # (``sum`` starts from ``0 + first term``), so flushes are
        # bit-identical to buffering the deltas themselves.
        self._acc = np.zeros(self.trainer.dim)
        self._delta = np.empty(self.trainer.dim)
        self._total = 0.0
        self._buffered = 0

    def apply_upload(
        self, dev_id: int, trained: np.ndarray, base: np.ndarray, staleness: int
    ) -> bool:
        cfg: FedBuffConfig = self.config  # type: ignore[assignment]
        weight = self.mix_weight(staleness)
        delta = np.subtract(trained, base, out=self._delta)
        delta *= weight
        self._acc += delta
        self._total += weight
        self._buffered += 1
        # The flush goal shrinks to the unsuspected cohort size so the
        # buffer never waits on devices the failure detector parked.
        if self._buffered < self.live_target(cfg.buffer_goal):
            return False
        delta = self._acc / self._total
        # Replace, never mutate: in-flight broadcast payloads alias the
        # previous global vector.
        self.global_weights = self.global_weights + cfg.global_lr * delta
        self._acc.fill(0.0)
        self._total = 0.0
        self._buffered = 0
        self._version += 1
        return True
