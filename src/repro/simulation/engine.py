"""Event-driven execution of one FedHiSyn ring round, plus async schedules.

:class:`RingRoundEngine` realizes Algorithm 1's inner loop (lines 7-16)
with real virtual-time semantics rather than the paper's lockstep
pseudocode: each device trains its next unit from the newest model that
reached it by unit *start* (Algorithm 1's buffer B_i, of which only the
back is ever read, so the engine keeps just that: an inbox of the newest
arrival per device id); models arriving mid-unit take effect on the next
unit; every completed unit is forwarded to the ring successor after the
hop's transfer time on the network model.

The engine is algorithm-agnostic about what "training" means — the units
that complete together train as one :func:`repro.device.batched.run_units`
wave, stacked on the server's batched trainer when it passes one — so
ablations (e.g. averaging instead of direct use) plug in via the
``combine`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.compression.base import UpdateCodec
from repro.compression.codecs import IdentityCodec
from repro.device.batched import BatchedTrainer, run_units
from repro.device.fleet import DeviceFleet
from repro.env.network import NetworkModel
from repro.simulation.scheduler import (
    PEER_DELIVER,
    UNIT_COMPLETE,
    Scheduler,
    completed_units,
)
from repro.utils.rng import SeedSequenceFactory

__all__ = ["RingRoundEngine", "RingRoundStats", "async_upload_schedule"]

#: Keyed rng stream for peer-hop message drops, disjoint from the server's
#: streams (participant sampling uses ``(round, 1)``, ring building
#: ``(round, 2)``, availability ``(round, 3)``, server drops ``(0, 101)``).
_PEER_DROP_STREAM_KEY = (0, 102)


@dataclass
class RingRoundStats:
    """What happened during one ring round.

    ``peer_units`` is the on-wire size of all forwards in dense-model
    units — equal to ``peer_sends`` without a codec, smaller with one.
    """

    units_completed: dict[int, int]
    peer_sends: int
    end_time: float
    peer_units: float = 0.0


def _direct_use(buffered: np.ndarray, own: np.ndarray | None) -> np.ndarray:
    """Paper default (Observation 1): train the received model directly."""
    return buffered


def _average(buffered: np.ndarray, own: np.ndarray | None) -> np.ndarray:
    """Ablation: average the received model with the device's own."""
    if own is None:
        return buffered
    return 0.5 * (buffered + own)


class RingRoundEngine:
    """Executes ring-topology rounds over a set of devices.

    Parameters
    ----------
    devices:
        The population; ring members are device ids into it.
    network:
        The :class:`~repro.env.network.NetworkModel` every peer hop
        crosses: its transfer time and its ``drop_prob``.  None is the
        paper's ideal network (instant, lossless hops).
    epochs_per_unit:
        Local epochs of one training unit (the paper's 5).
    combine:
        How a device merges the newest buffered model with its own before
        training — ``"direct"`` (paper) or ``"average"`` (Fig. 2 ablation).
    drop_seed:
        Seed of the peer-hop drop stream.
    """

    def __init__(
        self,
        devices: DeviceFleet,
        network: NetworkModel | None = None,
        epochs_per_unit: int = 5,
        combine: str = "direct",
        drop_seed: int = 0,
    ) -> None:
        if epochs_per_unit <= 0:
            raise ValueError("epochs_per_unit must be positive")
        # Ring members are fleet ids; a round reads only their rows, so a
        # round over a small slice of a huge population never touches idle
        # devices.
        self.fleet = DeviceFleet.require(devices)
        self.network = network if network is not None else NetworkModel()
        self.epochs_per_unit = epochs_per_unit
        combiners: dict[str, Callable] = {"direct": _direct_use, "average": _average}
        if combine not in combiners:
            raise ValueError(f"combine must be one of {sorted(combiners)}")
        self._combine = combiners[combine]
        # Failure injection: each peer hop is independently lost with the
        # network's drop_prob.  A lost hop is harmless to liveness — the
        # successor simply continues its own model (Eq. 7).  The rng is a
        # SeedSequenceFactory keyed stream — the same seed discipline as
        # the server's (0, 101) drop stream — so ring drops reproduce
        # under the experiment seed like every other stochastic component.
        self._drop_rng = SeedSequenceFactory(drop_seed).generator(
            *_PEER_DROP_STREAM_KEY
        )
        self.dropped_sends = 0

    def run_round(
        self,
        rings: Sequence[Sequence[int]],
        global_weights: np.ndarray | dict[int, np.ndarray],
        duration: float,
        round_idx: int = 0,
        codec: UpdateCodec = IdentityCodec(),
        codec_reference: np.ndarray | None = None,
        batched: BatchedTrainer | None = None,
    ) -> RingRoundStats:
        """One round: every listed device starts from ``global_weights``,
        trains/forwards along its ring until ``duration`` elapses.

        ``global_weights`` is either one vector broadcast to everyone
        (FedHiSyn's server round) or a per-device-id dict (decentralized
        continuation, used by the Section 3 observation experiments).

        ``codec`` (an :class:`~repro.compression.base.UpdateCodec`; the
        stateless identity default hops dense) carries every ring forward
        through one :meth:`~repro.compression.base.UpdateCodec.transmit`
        against ``codec_reference`` — the round's shared decoded broadcast
        (None after a lossy broadcast: hops then go dense).  The successor
        receives the *decoded* model and the hop's link time scales with
        the encoded size; ``stats.peer_units`` accumulates the on-wire
        total for the server's peer meter.

        ``batched`` is the owning server's
        :class:`~repro.device.batched.BatchedTrainer`, on which each
        completion wave trains as one stack; None trains unit by unit.

        Every device completes at least one unit (Algorithm 1 line 11
        enters the loop whenever the remaining budget is positive).  The
        caller registers every ring member in the fleet's round arena
        (``fleet.round_matrix``) first; after the call each device's row
        holds its last trained model — the vector it would upload to the
        server.

        Ownership: the inbox *borrows* (an arrival aliases the sender's
        array and is never mutated); seeding a device and finishing a unit
        *snapshot* into its fleet row via ``set_weights``.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        participants = [d for ring in rings for d in ring]
        if len(set(participants)) != len(participants):
            raise ValueError("a device appears in more than one ring position")

        successor: dict[int, int] = {}
        for ring in rings:
            if not ring:
                continue
            for pos, dev in enumerate(ring):
                successor[dev] = ring[(pos + 1) % len(ring)]

        fleet = self.fleet
        unit_time = dict(zip(participants, fleet.unit_times[participants].tolist()))
        # Per-device mutable state for the event loop.
        units_done = {i: 0 for i in participants}
        units_budget: dict[int, int] = {}
        unit_start_model: dict[int, np.ndarray] = {}
        inbox: dict[int, np.ndarray] = {}  # newest arrival per device

        # A fresh Scheduler per round: round-relative virtual time starts
        # at zero, and the (time, insertion) total order of the shared
        # runtime is exactly the discipline this loop always relied on.
        sched = Scheduler()
        for dev_id in participants:
            start = (
                global_weights[dev_id]
                if isinstance(global_weights, dict)
                else global_weights
            )
            fleet.set_weights(dev_id, start)
            # floor(duration / t_i) units, minimum one (Alg 1 line 11).
            units_budget[dev_id] = completed_units(duration, unit_time[dev_id])
            unit_start_model[dev_id] = start
            sched.at(unit_time[dev_id], UNIT_COMPLETE, dev_id)

        network = self.network
        drop_prob = network.drop_prob
        peer_sends = 0
        peer_units = 0.0
        while sched:
            # Drain every event sharing the earliest timestamp as one batch:
            # with zero link delay a model completed at time t must be
            # available to the unit its successor *starts* at time t — the
            # lockstep rotation of Algorithm 1's synchronous loop.
            batch = sched.next_batch()
            now = sched.now
            completed: list[int] = []
            for ev in batch:
                if ev.kind == PEER_DELIVER:
                    dst, weights = ev.payload
                    inbox[dst] = weights
                else:
                    completed.append(ev.payload)

            # Phase 1: train every unit that completed at `now` (each uses
            # the start model fixed when its unit began, so the wave trains
            # as one stack), then forward the results in completion order.
            instant: list[tuple[int, np.ndarray]] = []
            # Each result is its own allocation: it is forwarded and sits
            # in the successor's inbox while the device trains on.
            results = [np.empty(fleet.dim) for _ in completed]
            run_units(
                batched,
                fleet,
                completed,
                self.epochs_per_unit,
                round_idx,
                [
                    self._combine(unit_start_model[d], fleet.weights_row(d))
                    for d in completed
                ],
                results,
                unit_idx=[units_done[d] for d in completed],
                sync=True,
            )
            for dev_id, trained in zip(completed, results):
                units_done[dev_id] += 1
                succ = successor[dev_id]
                if succ != dev_id:  # singleton rings do not self-send
                    peer_sends += 1
                    _, forwarded, hop_units = codec.transmit(
                        trained, ("peer", dev_id), codec_reference
                    )
                    peer_units += hop_units
                    if drop_prob and self._drop_rng.random() < drop_prob:
                        self.dropped_sends += 1
                    else:
                        delay = network.transfer_time(dev_id, succ, hop_units)
                        if delay == 0.0:
                            instant.append((succ, forwarded))
                        else:
                            sched.at(now + delay, PEER_DELIVER, (succ, forwarded))

            # Phase 2: zero-delay hops land before anyone starts a new unit.
            for dst, weights in instant:
                inbox[dst] = weights

            # Phase 3: schedule next units — newest arrival wins, else the
            # device continues its own model (Eq. 7).
            for dev_id in completed:
                if units_done[dev_id] < units_budget[dev_id]:
                    nxt = inbox.pop(dev_id, None)
                    if nxt is None:
                        nxt = fleet.weights_row(dev_id)
                    unit_start_model[dev_id] = nxt
                    sched.at(now + unit_time[dev_id], UNIT_COMPLETE, dev_id)

        return RingRoundStats(
            units_completed=units_done,
            peer_sends=peer_sends,
            end_time=sched.now,
            peer_units=peer_units,
        )


def async_upload_schedule(
    unit_times: dict[int, float] | Sequence[float],
    horizon: float,
) -> list[tuple[float, int]]:
    """Upload times for continuously training devices over ``[0, horizon]``.

    Device ``i`` uploads at ``k * t_i`` for ``k = 1..floor(horizon / t_i)``
    — the arrival process of TAFedAvg and of FedAT's tier updates.  Returns
    ``(time, device_id)`` sorted by time (ties by device id), and
    guarantees every device appears at least once (the slowest device's
    single upload defines the horizon in the paper's setup).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if isinstance(unit_times, dict):
        items = sorted(unit_times.items())
    else:
        items = list(enumerate(unit_times))
    if not items:
        return []
    schedule: list[tuple[float, int]] = []
    for dev_id, t in items:
        if t <= 0:
            raise ValueError(f"unit time for device {dev_id} must be positive")
        k_max = completed_units(horizon, t)
        schedule.extend((k * t, dev_id) for k in range(1, k_max + 1))
    schedule.sort(key=lambda pair: (pair[0], pair[1]))
    return schedule
