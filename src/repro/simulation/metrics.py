"""Communication accounting and accuracy tracking.

The paper's headline efficiency metric is "the number of transmitted
models between devices and the server to achieve certain target accuracy"
(Section 6.1), reported *relative to the transfers of one FedAvg round*
(Table 1 caption).  :class:`TransmissionMeter` counts raw model transfers,
:class:`MetricsHistory` records (round, virtual time, cumulative transfers,
accuracy) and answers cost-to-target queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = ["TransmissionMeter", "MetricsHistory", "ResilienceStats"]


@dataclass
class ResilienceStats:
    """Exact fault/tolerance accounting for one run.

    The servers increment these as faults are injected and tolerated;
    :meth:`snapshot` becomes ``RunResult.resilience``.  The counters obey
    two invariants the tests assert: every injected crash is either
    detected or undetected (``undetected_crashes`` is derived, so
    ``injected == detected + undetected`` holds by construction and
    ``detected_crashes <= injected_crashes`` is checked at snapshot time),
    and retransmissions never exceed ``max_retries`` per original upload.

    ``wasted_time`` is device-time burned on work that produced no update:
    partial units destroyed by crashes plus straggler work discarded by a
    round deadline.
    """

    injected_crashes: int = 0
    detected_crashes: int = 0
    injected_slowdowns: int = 0
    injected_corruptions: int = 0
    uploads_sent: int = 0
    upload_timeouts: int = 0
    retries: int = 0
    dropped_updates: int = 0
    deadline_hits: int = 0
    false_suspicions: int = 0
    wasted_time: float = 0.0

    @property
    def undetected_crashes(self) -> int:
        return self.injected_crashes - self.detected_crashes

    @property
    def injected_total(self) -> int:
        return (
            self.injected_crashes
            + self.injected_slowdowns
            + self.injected_corruptions
        )

    def active(self) -> bool:
        """True once any counter has moved."""
        return any(
            getattr(self, f.name) != 0 for f in fields(self)
        )

    def snapshot(self) -> dict[str, float]:
        if self.detected_crashes > self.injected_crashes:
            raise ValueError(
                "detector accounting broke: "
                f"{self.detected_crashes} detections for "
                f"{self.injected_crashes} injected crashes"
            )
        snap: dict[str, float] = {f.name: getattr(self, f.name) for f in fields(self)}
        snap["undetected_crashes"] = self.undetected_crashes
        snap["injected_total"] = self.injected_total
        return snap


class TransmissionMeter:
    """Counts model transfers by channel — on-wire and raw.

    ``server_down``/``server_up`` are device<->server transfers — the
    paper's costed channel.  ``peer`` counts device-to-device ring hops,
    which the paper treats as free but which we record anyway (they are the
    quantity "traded" for server communication in the design principle).
    ``model_units`` scales entries that cost more than one model — SCAFFOLD
    uploads model + control variate, i.e. 2 units (Section 6.1, Metrics).

    With an update codec active the channel passes the payload's *wire*
    size as ``model_units`` and the logical (uncompressed) size as
    ``raw_units``; ``raw_down``/``raw_up``/``raw_peer`` accumulate the
    latter, so ``compression_ratio`` is exactly raw-bytes / wire-bytes.
    Without a codec the two series are identical.  ``bytes_per_unit``
    (one dense model's byte size, set by the server from the trainer's
    flat dimension) converts unit counts to exact byte counts.
    """

    def __init__(self) -> None:
        self.server_down = 0.0
        self.server_up = 0.0
        self.peer = 0.0
        self.raw_down = 0.0
        self.raw_up = 0.0
        self.raw_peer = 0.0
        self.bytes_per_unit: float | None = None

    def record_download(
        self, count: int = 1, model_units: float = 1.0,
        raw_units: float | None = None,
    ) -> None:
        if count < 0 or model_units < 0:
            raise ValueError("counts must be non-negative")
        self.server_down += count * model_units
        self.raw_down += count * (model_units if raw_units is None else raw_units)

    def record_upload(
        self, count: int = 1, model_units: float = 1.0,
        raw_units: float | None = None,
    ) -> None:
        if count < 0 or model_units < 0:
            raise ValueError("counts must be non-negative")
        self.server_up += count * model_units
        self.raw_up += count * (model_units if raw_units is None else raw_units)

    def record_peer(
        self, count: int = 1, model_units: float = 1.0,
        raw_units: float | None = None,
    ) -> None:
        if count < 0 or model_units < 0:
            raise ValueError("counts must be non-negative")
        self.peer += count * model_units
        self.raw_peer += count * (model_units if raw_units is None else raw_units)

    @property
    def server_total(self) -> float:
        """Total device<->server transfers (the Table 1 quantity)."""
        return self.server_down + self.server_up

    @property
    def raw_total(self) -> float:
        """Uncompressed device<->server transfers (logical models moved)."""
        return self.raw_down + self.raw_up

    @property
    def compression_ratio(self) -> float:
        """raw/wire over every channel; 1.0 when nothing has moved."""
        wire = self.server_total + self.peer
        raw = self.raw_total + self.raw_peer
        return raw / wire if wire > 0.0 else 1.0

    @property
    def wire_bytes(self) -> float | None:
        """Exact bytes that crossed any link; None until the server has
        told the meter how big one dense model is."""
        if self.bytes_per_unit is None:
            return None
        return (self.server_total + self.peer) * self.bytes_per_unit

    @property
    def raw_bytes(self) -> float | None:
        """Bytes the same traffic would have cost uncompressed."""
        if self.bytes_per_unit is None:
            return None
        return (self.raw_total + self.raw_peer) * self.bytes_per_unit

    def snapshot(self) -> dict[str, float]:
        snap = {
            "server_down": self.server_down,
            "server_up": self.server_up,
            "server_total": self.server_total,
            "peer": self.peer,
            "raw_down": self.raw_down,
            "raw_up": self.raw_up,
            "raw_total": self.raw_total,
            "raw_peer": self.raw_peer,
            "compression_ratio": self.compression_ratio,
        }
        if self.bytes_per_unit is not None:
            snap["wire_bytes"] = self.wire_bytes
            snap["raw_bytes"] = self.raw_bytes
        return snap


@dataclass
class MetricsHistory:
    """Per-round records of one training run, plus virtual-time checkpoints.

    Two eval processes coexist: the round-indexed series (``rounds`` /
    ``times`` / ...) sampled every ``eval_every`` rounds or aggregations,
    and the *time-indexed* checkpoint series sampled every
    ``eval_time_every`` units of virtual time by the scheduler's
    ``eval_checkpoint`` events — the paper's real quantity of interest
    (time-to-accuracy) measured directly rather than read off round ends.
    """

    rounds: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    server_transfers: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    checkpoint_times: list[float] = field(default_factory=list)
    checkpoint_transfers: list[float] = field(default_factory=list)
    checkpoint_accuracies: list[float] = field(default_factory=list)
    checkpoint_losses: list[float] = field(default_factory=list)

    def record(
        self,
        round_idx: int,
        time: float,
        server_transfers: float,
        accuracy: float,
        loss: float = float("nan"),
    ) -> None:
        if self.rounds and round_idx <= self.rounds[-1]:
            raise ValueError("round indices must be strictly increasing")
        if self.server_transfers and server_transfers < self.server_transfers[-1]:
            raise ValueError("cumulative transfers cannot decrease")
        self.rounds.append(round_idx)
        self.times.append(time)
        self.server_transfers.append(server_transfers)
        self.accuracies.append(accuracy)
        self.losses.append(loss)

    def record_time_checkpoint(
        self,
        time: float,
        server_transfers: float,
        accuracy: float,
        loss: float = float("nan"),
    ) -> None:
        """One ``eval_checkpoint`` event: the deployed model's metrics at a
        nominal virtual time.  Checkpoint times are non-decreasing (equal
        times are legal — several checkpoints can mature inside one
        synchronous round's clock jump and share its evaluation)."""
        if self.checkpoint_times and time < self.checkpoint_times[-1]:
            raise ValueError("checkpoint times must be non-decreasing")
        if (
            self.checkpoint_transfers
            and server_transfers < self.checkpoint_transfers[-1]
        ):
            raise ValueError("cumulative transfers cannot decrease")
        self.checkpoint_times.append(time)
        self.checkpoint_transfers.append(server_transfers)
        self.checkpoint_accuracies.append(accuracy)
        self.checkpoint_losses.append(loss)

    @property
    def final_accuracy(self) -> float:
        if not self.accuracies:
            raise ValueError("empty history")
        return self.accuracies[-1]

    @property
    def best_accuracy(self) -> float:
        if not self.accuracies:
            raise ValueError("empty history")
        return max(self.accuracies)

    def transfers_to_target(self, target: float) -> float | None:
        """Cumulative server transfers when ``target`` is first reached."""
        for t, a in zip(self.server_transfers, self.accuracies):
            if a >= target:
                return t
        return None

    def time_to_target(self, target: float) -> float | None:
        """Earliest virtual time at which ``target`` accuracy is recorded.

        The time-to-accuracy metric: both eval processes are consulted —
        the round-indexed series and the time-indexed checkpoints — and
        the earlier hit wins (each series is time-sorted, so the first hit
        per series suffices).  None when the run never got there.
        """
        best: float | None = None
        for t, a in zip(self.times, self.accuracies):
            if a >= target:
                best = t
                break
        for t, a in zip(self.checkpoint_times, self.checkpoint_accuracies):
            if a >= target:
                if best is None or t < best:
                    best = t
                break
        return best

    def relative_cost_to_target(self, target: float, per_round_unit: float) -> float | None:
        """Table 1's metric: transfers-to-target / transfers-per-FedAvg-round."""
        if per_round_unit <= 0:
            raise ValueError("per_round_unit must be positive")
        t = self.transfers_to_target(target)
        return None if t is None else t / per_round_unit

    def to_dict(self) -> dict[str, list]:
        """JSON-serializable copy of every recorded series."""
        return {
            "rounds": list(self.rounds),
            "times": list(self.times),
            "server_transfers": list(self.server_transfers),
            "accuracies": list(self.accuracies),
            "losses": list(self.losses),
            "checkpoint_times": list(self.checkpoint_times),
            "checkpoint_transfers": list(self.checkpoint_transfers),
            "checkpoint_accuracies": list(self.checkpoint_accuracies),
            "checkpoint_losses": list(self.checkpoint_losses),
        }

    @classmethod
    def from_dict(cls, data: dict[str, list]) -> "MetricsHistory":
        """Inverse of :meth:`to_dict` — bypasses :meth:`record` validation
        since the series were validated when first recorded.  Checkpoint
        series default to empty for payloads written before they existed
        (old campaign caches, pre-refactor goldens)."""
        history = cls()
        history.rounds = [int(r) for r in data["rounds"]]
        history.times = [float(t) for t in data["times"]]
        history.server_transfers = [float(t) for t in data["server_transfers"]]
        history.accuracies = [float(a) for a in data["accuracies"]]
        history.losses = [float(l) for l in data["losses"]]
        history.checkpoint_times = [float(t) for t in data.get("checkpoint_times", [])]
        history.checkpoint_transfers = [
            float(t) for t in data.get("checkpoint_transfers", [])
        ]
        history.checkpoint_accuracies = [
            float(a) for a in data.get("checkpoint_accuracies", [])
        ]
        history.checkpoint_losses = [
            float(l) for l in data.get("checkpoint_losses", [])
        ]
        return history
