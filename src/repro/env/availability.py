"""Device-availability models: who is online this round.

The paper's evaluation keeps every sampled device online for the whole
round; real fleets churn.  An :class:`AvailabilityModel` maps a round index
and a candidate id array to a boolean online mask — the server applies
it *after* participant sampling, so availability composes with any
selection policy (a device can be picked and then found offline).

All models are pure functions of ``(round_idx, device_ids, unit_times,
rng)`` — population *arrays*, so asking who is online never materializes
a per-device object; the server owns the rng stream so runs stay
reproducible and campaign-cacheable.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.utils.config import validate_fraction

__all__ = [
    "AvailabilityModel",
    "AlwaysOn",
    "BernoulliAvailability",
    "TraceAvailability",
    "CapacityCorrelatedAvailability",
    "DiurnalAvailability",
]


class AvailabilityModel:
    """Interface: per-round online mask over a device-id array."""

    #: True for models that never take a device offline — the server skips
    #: the rng stream entirely for them (the ``ideal`` bit-identity path).
    always_on: bool = False

    def available_mask_ids(
        self,
        round_idx: int,
        device_ids: np.ndarray,
        unit_times: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Boolean mask, True where ``device_ids[i]`` is online in
        ``round_idx``; ``unit_times`` is aligned with ``device_ids`` (what
        capacity-aware models read)."""
        raise NotImplementedError


class AlwaysOn(AvailabilityModel):
    """Paper semantics: every device is online every round."""

    always_on = True

    def available_mask_ids(self, round_idx, device_ids, unit_times, rng):
        return np.ones(len(device_ids), dtype=bool)


class BernoulliAvailability(AvailabilityModel):
    """Independent churn: each device is online with probability ``up_prob``."""

    def __init__(self, up_prob: float = 0.9) -> None:
        validate_fraction(up_prob, "up_prob")
        self.up_prob = float(up_prob)

    def available_mask_ids(self, round_idx, device_ids, unit_times, rng):
        if self.up_prob >= 1.0:
            return np.ones(len(device_ids), dtype=bool)
        return rng.random(len(device_ids)) < self.up_prob


class TraceAvailability(AvailabilityModel):
    """Trace-driven availability: a per-device on/off schedule.

    ``traces`` maps a device id to a sequence of booleans indexed by round
    (cycled when the run outlasts the trace).  Devices without a trace use
    ``default``.  Round indices are 1-based (the server's convention), so
    round ``r`` reads ``trace[(r - 1) % len(trace)]``.

    Keys are coerced with ``int()``, so string device ids are accepted —
    use string keys (``{"0": [...]}``) when the traces travel through
    ``ExperimentSpec.env_kwargs``: JSON object keys are always strings,
    and integer keys would make the spec's dict round-trip unequal even
    though the run itself behaves identically.
    """

    def __init__(
        self,
        traces: Mapping[int, Sequence[bool]],
        default: bool = True,
    ) -> None:
        self.traces = {
            int(dev_id): [bool(v) for v in trace]
            for dev_id, trace in dict(traces).items()
        }
        for dev_id, trace in self.traces.items():
            if not trace:
                raise ValueError(f"trace for device {dev_id} is empty")
        self.default = bool(default)
        # Streamed array form: the traced schedules live once as one flat
        # boolean block plus (id, offset, length) arrays, and an epoch's
        # values are a single modular gather — per-epoch cost scales with
        # the number of *traced* devices, no matter how many devices the
        # caller's id array holds, and nothing is ever materialized per
        # untraced device.
        tids = sorted(self.traces)
        self._trace_ids = np.asarray(tids, dtype=np.intp)
        lens = np.asarray([len(self.traces[i]) for i in tids], dtype=np.intp)
        self._trace_lengths = lens
        self._trace_offsets = np.concatenate(
            ([0], np.cumsum(lens[:-1]))
        ).astype(np.intp) if tids else np.zeros(0, dtype=np.intp)
        self._trace_flat = np.asarray(
            [v for i in tids for v in self.traces[i]], dtype=bool
        )

    def available_mask_ids(self, round_idx, device_ids, unit_times, rng):
        ids = np.asarray(device_ids)
        mask = np.full(len(ids), self.default, dtype=bool)
        tids = self._trace_ids
        if not tids.size or not ids.size:
            return mask
        # This epoch's value for every traced device: one modular gather
        # from the flat trace block (round indices are 1-based).
        vals = self._trace_flat[
            self._trace_offsets + (round_idx - 1) % self._trace_lengths
        ]
        # Locate the traced devices inside ``ids`` — O(traced x log n),
        # untraced devices are never enumerated.  Cohort id arrays are
        # ascending in practice; fall back to an argsort when not.
        if ids.size > 1 and np.any(np.diff(ids) < 0):
            sorter = np.argsort(ids, kind="stable")
            rows = sorter[np.minimum(np.searchsorted(ids, tids, sorter=sorter), ids.size - 1)]
        else:
            rows = np.minimum(np.searchsorted(ids, tids), ids.size - 1)
        hit = ids[rows] == tids
        mask[rows[hit]] = vals[hit]
        return mask


class DiurnalAvailability(AvailabilityModel):
    """Day/night cycle: the fleet's online probability follows a sinusoid
    of the round index (synchronous servers) or churn-epoch index (async
    servers) — both tick once per "round" of virtual time, so ``period``
    is the cycle length in rounds.

    ``up_prob(t) = min_up + (max_up - min_up) * (1 + sin(2*pi*(t/period
    + phase))) / 2`` — peaks at ``max_up`` (evening plugged-in-and-idle
    fleets), troughs at ``min_up``.  ``phase`` in [0, 1) shifts where in
    the cycle round 0 lands.  Every device shares the cycle (it models
    one timezone's fleet); the per-device draws stay independent.
    """

    def __init__(
        self,
        period: float = 24.0,
        min_up: float = 0.15,
        max_up: float = 0.95,
        phase: float = 0.0,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        validate_fraction(min_up, "min_up", inclusive_low=True)
        validate_fraction(max_up, "max_up")
        if min_up > max_up:
            raise ValueError(
                f"min_up ({min_up}) must not exceed max_up ({max_up})"
            )
        self.period = float(period)
        self.min_up = float(min_up)
        self.max_up = float(max_up)
        self.phase = float(phase)

    def up_prob(self, round_idx: int) -> float:
        """The cycle's online probability at tick ``round_idx``."""
        wave = np.sin(2.0 * np.pi * (round_idx / self.period + self.phase))
        return float(self.min_up + (self.max_up - self.min_up) * 0.5 * (1.0 + wave))

    def available_mask_ids(self, round_idx, device_ids, unit_times, rng):
        return rng.random(len(device_ids)) < self.up_prob(round_idx)


class CapacityCorrelatedAvailability(AvailabilityModel):
    """Slow devices drop out more: the mobile-fleet failure mode.

    A device's online probability falls linearly with its normalized unit
    time within the candidate set: the fastest candidate is up with
    ``up_prob``, the slowest with ``up_prob - slow_penalty`` (floored at
    5% so no device is permanently dark).
    """

    def __init__(self, up_prob: float = 0.95, slow_penalty: float = 0.4) -> None:
        validate_fraction(up_prob, "up_prob")
        validate_fraction(slow_penalty, "slow_penalty", inclusive_low=True)
        self.up_prob = float(up_prob)
        self.slow_penalty = float(slow_penalty)

    def available_mask_ids(self, round_idx, device_ids, unit_times, rng):
        times = np.asarray(unit_times, dtype=np.float64)
        lo, hi = times.min(), times.max()
        norm = np.zeros_like(times) if hi == lo else (times - lo) / (hi - lo)
        probs = np.clip(self.up_prob - self.slow_penalty * norm, 0.05, 1.0)
        return rng.random(len(times)) < probs
