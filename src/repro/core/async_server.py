"""Event-driven asynchronous federated server.

Where the synchronous :class:`~repro.core.server.FederatedServer` runs
rounds as degenerate barrier events, :class:`AsyncFederatedServer` runs a
*real* schedule on the same :class:`~repro.simulation.scheduler.Scheduler`:
devices train continuously at their fleet unit-time rates, every message
crosses the environment's per-link latency (not the round's slowest link),
message drops hit individual transfers, and availability churn fires as
``availability_change`` events instead of per-round masks.

The device lifecycle (one state machine per cohort member):

1. ``broadcast_arrival`` — a server push lands; a *parked* (idle) device
   wakes and starts a unit, a training device banks the newest model for
   its next unit (models arriving mid-unit never interrupt — the same
   rule as the FedHiSyn ring engine).
2. ``unit_complete`` — the unit's result is uploaded through the env
   channel, and the next unit begins immediately from the freshest model
   on hand: the newest server push if one arrived, else the device's own
   result.  Devices never idle waiting for the server — a lost reply just
   means more local continuation, exactly the failure mode staleness
   decay exists to damp.  The result itself may have been computed
   earlier: everything it depends on (start model, shard, epochs, the
   ``(device, 0, unit_idx)`` stream) is fixed when the unit begins, so a
   wave that needs training trains in one ``run_units`` call together
   with the earliest-due other in-flight units, topping the pool of
   results held ahead up to ``_AHEAD`` (192)
   (:meth:`AsyncFederatedServer._train_ahead`).  That stacks equal shard
   sizes a single instant's wave rarely holds, and it costs at most
   ``_AHEAD`` extra result vectors; a crash discards its unit's result.
3. ``upload_arrival`` — the upload lands after its uplink latency; the
   subclass hook :meth:`apply_upload` mixes it (FedAsync) or buffers it
   (FedBuff).  The server replies with the current global model, which
   feeds step 1.

**Waves** (the one event path, and the million-device path): every
``unit_complete`` / ``upload_arrival`` / ``broadcast_arrival`` entry
carries a *wave* — an int32 id array plus, for the message kinds, lists of
per-member columns — and each kind has exactly one handler, which consumes
the members **in array order**.  A lone device is a wave of one.  Consuming
in array order makes a wave observationally identical to ``len(ids)``
consecutive single-device events: the same rng draws in the same order
(training streams, the shared drop stream, the fault stream), the same
metering, the same aggregation sequence
(``tests/golden/async/event_matrix.json`` freezes what one event per
device produced; ``test_batched_events_match_per_device_observables``
replays it).

How members share entries is one rule in one helper, :meth:`_emit`.  With
no fault model armed, members that mature at the same time share an entry
— they were scheduled consecutively at one moment, so by the scheduler's
tie-break contract no foreign event's sequence number can fall between
them.  The quantized unit-time schedule (``unit_times_from_counts`` yields
``round_length / k`` for small integer ``k``) makes devices that start
together complete together, so waves are large and the event engine's
per-device overhead amortizes away.  With a fault model armed, every
member gets its own entry, in member order: a crash cancels *its* device's
``unit_complete`` handle, and the tie order of timers against completions
on the quantized time grid decides the drop/fault rng order — packing
armed waves would change results, so it is not done.  Training does not
follow the packing: armed units still stack, because they train ahead.

**Staleness** is version-counted: the server increments a global version
per aggregation, every dispatched model is stamped with it, and an upload
computed against version ``v`` arriving at version ``V`` has staleness
``V - v``.  :func:`staleness_weight` maps that to a mixing multiplier via
the ``constant`` / ``polynomial`` / ``hinge`` decay families of Xie et
al.'s FedAsync — shared by both async methods (FedBuff leaks stale buffer
entries through the same hook).

``config.rounds`` means *server aggregations* (global model versions), so
``eval_every`` and campaign comparisons keep their shape across the
sync/async divide; time-to-accuracy comparisons use virtual time and the
``eval_time_every`` checkpoint process.

Determinism: the cohort draw uses seed stream ``(0, 1)`` (synchronous
rounds draw ``(round >= 1, 1)``, so the streams are disjoint), training
streams are ``(device, 0, unit_idx)`` (sync units use round >= 1),
churn epochs draw ``(epoch, 3)`` and message drops the persistent
``(0, 101)`` stream — two identically-seeded runs replay the exact same
event trace.

**Fault tolerance** (armed only when a non-null :mod:`repro.faults` model
is installed; the clean path runs zero extra draws or events): every unit
start draws a straggler slowdown and a crash point from the persistent
``(0, 202)`` fault stream.  A crash cancels the pending ``unit_complete``
(the partial unit is lost), takes the device down for its downtime, and a
``device_restart`` rejoins it.  Uploads arm an ``upload_timeout``
retransmission timer — a drop (or a timeout beaten by a slow link) backs
off exponentially through ``retry_upload`` events up to
``config.max_retries``, at-least-once semantics: a retry racing its own
late delivery can double-deliver, exactly like a real retransmission
protocol.  Devices emit ``heartbeat`` beacons every
``config.heartbeat_period``; the ``suspect`` sweep marks devices silent
past ``config.suspicion_timeout`` as suspected — detected crashes for the
resilience accounting, and the count the buffered methods subtract from
their flush goal (:meth:`AsyncFederatedServer.live_target`) so an
aggregation never waits on a parked device.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.server import (
    _AVAILABILITY_STREAM,
    _FAULT_ASYNC_STREAM_KEY,
    FederatedServer,
    ServerConfig,
)
from repro.device.batched import _AHEAD, run_units
from repro.simulation.results import RunResult
from repro.simulation.scheduler import (
    AVAILABILITY_CHANGE,
    BROADCAST_ARRIVAL,
    DEVICE_CRASH,
    DEVICE_RESTART,
    EVAL_CHECKPOINT,
    HEARTBEAT,
    RETRY_UPLOAD,
    SUSPECT,
    UNIT_COMPLETE,
    UPLOAD_ARRIVAL,
    UPLOAD_TIMEOUT,
    Scheduler,
)
from repro.utils.config import validate_non_negative, validate_positive

__all__ = [
    "STALENESS_DECAYS",
    "staleness_weight",
    "AsyncServerConfig",
    "AsyncFederatedServer",
]


#: The staleness-decay families (FedAsync Section 5.2, adopted by FedBuff):
#: ``constant`` ignores staleness, ``polynomial`` damps as
#: ``(1 + s) ** -a``, ``hinge`` is flat up to a grace of ``b`` versions
#: then decays as ``1 / (a * (s - b) + 1)``.
STALENESS_DECAYS = ("constant", "polynomial", "hinge")


def staleness_weight(
    staleness: int,
    decay: str,
    exponent: float = 0.5,
    hinge_delay: int = 4,
) -> float:
    """Mixing multiplier in (0, 1] for an upload ``staleness`` versions old."""
    if staleness < 0:
        raise ValueError(f"staleness must be non-negative, got {staleness}")
    if decay == "constant":
        return 1.0
    if decay == "polynomial":
        return float((1.0 + staleness) ** -exponent)
    if decay == "hinge":
        if staleness <= hinge_delay:
            return 1.0
        return float(1.0 / (exponent * (staleness - hinge_delay) + 1.0))
    raise ValueError(f"decay must be one of {STALENESS_DECAYS}, got {decay!r}")


@dataclass
class AsyncServerConfig(ServerConfig):
    """Shared knobs of the asynchronous method family.

    ``rounds`` (inherited) counts server aggregations.  ``churn_period``
    is the virtual-time spacing of availability re-draws; None uses the
    cohort's slowest unit time (the async analogue of a round).
    """

    staleness_decay: str = "polynomial"
    staleness_exponent: float = 0.5
    hinge_delay: int = 4
    churn_period: float | None = None
    # Fault tolerance (active only with a non-null fault model installed):
    # an upload unacknowledged after ``upload_timeout`` retries with
    # exponential backoff (``retry_backoff * 2**attempt``) up to
    # ``max_retries`` retransmissions; devices heartbeat every
    # ``heartbeat_period`` and fall suspected after ``suspicion_timeout``
    # of silence.  Times are virtual-time units (a median unit is ~0.5).
    max_retries: int = 3
    retry_backoff: float = 0.25
    upload_timeout: float = 1.0
    heartbeat_period: float = 0.5
    suspicion_timeout: float = 1.5

    def __post_init__(self) -> None:
        super().__post_init__()
        validate_non_negative(self.max_retries, "max_retries")
        validate_positive(self.retry_backoff, "retry_backoff")
        validate_positive(self.upload_timeout, "upload_timeout")
        validate_positive(self.heartbeat_period, "heartbeat_period")
        validate_positive(self.suspicion_timeout, "suspicion_timeout")
        if self.staleness_decay not in STALENESS_DECAYS:
            raise ValueError(
                f"staleness_decay must be one of {STALENESS_DECAYS}, "
                f"got {self.staleness_decay!r}"
            )
        validate_non_negative(self.staleness_exponent, "staleness_exponent")
        validate_non_negative(self.hinge_delay, "hinge_delay")
        if self.churn_period is not None:
            validate_positive(self.churn_period, "churn_period")


class AsyncFederatedServer(FederatedServer):
    """Base class of the asynchronous methods; subclasses implement one
    hook, :meth:`apply_upload`, and inherit the whole event loop."""

    method = "async-base"
    fault_aware = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Set True (e.g. by tests) before fit() to record the event trace.
        self.record_trace = False
        # Server aggregation counter — the staleness reference frame.
        self._version = 0
        self._finished = False
        # Off until fit() arms it with a non-null fault model; here so
        # live_target() works when hooks are driven outside the loop.
        self._fault_machinery = False

    # ---------------------------------------------------------------- hook

    def apply_upload(
        self, dev_id: int, trained: np.ndarray, base: np.ndarray, staleness: int
    ) -> bool:
        """Absorb one arrived upload; return True when it produced a new
        global model version (the server must have bumped ``_version`` and
        *replaced* — never mutated — ``global_weights``, which in-flight
        broadcast payloads alias)."""
        raise NotImplementedError

    # -------------------------------------------------------------- helpers

    def mix_weight(self, staleness: int) -> float:
        """The configured staleness decay evaluated at ``staleness``."""
        cfg: AsyncServerConfig = self.config  # type: ignore[assignment]
        return staleness_weight(
            staleness, cfg.staleness_decay, cfg.staleness_exponent, cfg.hinge_delay
        )

    def _select_cohort(self) -> np.ndarray:
        """The ids of the devices participating in this run — the server's
        shared selection core (the installed policy, else
        Bernoulli(participation)), drawn once on stream ``(0, 1)`` (sync
        rounds use ``(round >= 1, 1)``).  Availability is *not* filtered
        here: churn is event-driven over the run's span."""
        return self._select_ids(0, self._seeds.generator(0, 1))

    def live_target(self, goal: int) -> int:
        """``goal`` capped at the unsuspected cohort size — how many
        distinct contributors an aggregation can still hope for.  The
        failure detector's *parking* output: a buffered method that waits
        for K uploads must not count devices the detector has written off.
        Exactly ``goal`` while nothing is suspected (the clean-path
        bit-identity guarantee)."""
        if not self._fault_machinery:
            return goal
        suspected = int(np.count_nonzero(self._suspected))
        if not suspected:
            return goal
        return max(1, min(goal, len(self._cohort_ids) - suspected))

    # -------------------------------------------------------------- waves

    def _emit(self, kind: str, times, ids, *columns) -> list:
        """Schedule a wave of ``kind``: member ``k`` is device ``ids[k]``,
        matures at ``times[k]`` and carries ``column[k]`` of every column.
        An entry's payload is its int32 member array, or — when there are
        columns — the tuple ``(members, *member_columns)``.  Returns the
        scheduled entries, in scheduling order.

        This is the one place that decides packing.  Clean path: members
        maturing at the same time share an entry, groups in increasing
        time, input order kept inside each (stable sort) — what scheduling
        ``len(ids)`` consecutive single-device events dispatches.  Fault
        model armed: one member per entry, in member order, so a crash can
        cancel its own device's ``unit_complete`` and same-time ties
        against timers resolve exactly as per-device scheduling would.
        """
        ids = np.asarray(ids, dtype=np.int32)
        times = np.asarray(times, dtype=np.float64)
        n = len(ids)
        if self._fault_machinery:
            order, cuts = np.arange(n), np.arange(1, n)
        else:
            order = np.argsort(times, kind="stable")
            due = times[order]
            cuts = np.flatnonzero(due[1:] != due[:-1]) + 1
        bounds = [0, *cuts.tolist(), n]
        entries = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            idx = order[a:b]
            members = ids[idx]
            payload = None
            if columns:
                picks = idx.tolist()
                payload = (members, *([col[k] for k in picks] for col in columns))
            entries.append(
                self.scheduler.at_many(float(times[idx[0]]), kind, members, payload)
            )
        return entries

    def _emit_after(self, kind: str, rows: list[tuple]) -> None:
        """:meth:`_emit` for message rows ``(latency, dev_id, *columns)``
        collected by a handler's member loop, maturing ``latency`` from
        now.  Lost messages never became rows; no rows, no wave."""
        if rows:
            lats, ids, *columns = zip(*rows)
            self._emit(kind, self.scheduler.now + np.asarray(lats), ids, *columns)

    def _wake(self, ids: np.ndarray) -> None:
        """Start a unit on every device of ``ids`` that is parked, online
        and not crashed — the one wake test."""
        ready = ids[
            self._parked_mask[ids] & ~self._offline_mask[ids] & ~self._crashed[ids]
        ]
        if ready.size:
            self._parked_mask[ready] = False
            self._begin_units(ready)

    def _begin_units(self, ids: np.ndarray) -> None:
        """Start each member's next unit from the freshest model on hand:
        the newest arrived server push, else its own latest result.  The
        clean path then emits the completions as one wave set — the
        grouping the quantized unit-time schedule makes large.  Every
        begun unit enters ``_pending`` with its due time, the pool
        :meth:`_train_ahead` draws from.

        With the fault machinery armed a unit's duration picks up the
        model's straggler slowdown, and its crash draw may schedule a
        ``device_crash`` strictly inside the unit — which will cancel the
        pending ``unit_complete`` handle kept in ``_unit_events``.  Each
        member's completion and crash are scheduled inside the loop, so
        the sequence is UC(a), CR(a), UC(b), CR(b).
        """
        armed = self._fault_machinery
        now = self.scheduler.now
        unit_times = self._unit_time_of[ids]
        due = now + unit_times
        members = ids.tolist()
        for k, dev_id in enumerate(members):
            arrival = self._inbox.pop(dev_id, None)
            if arrival is not None:
                self._start_model[dev_id], self._base_version[dev_id] = arrival
            else:
                self._start_model[dev_id] = self._own_model[dev_id]
            if not armed:
                continue
            unit_time = float(unit_times[k])
            slow = self.faults.unit_slowdown(dev_id, self._fault_rng)
            if slow != 1.0:
                self.resilience.injected_slowdowns += 1
                unit_time *= slow
                due[k] = now + unit_time
            crash = self.faults.unit_crash(dev_id, self._fault_rng)
            (self._unit_events[dev_id],) = self._emit(
                UNIT_COMPLETE, due[k : k + 1], [dev_id]
            )
            if crash is not None:
                frac, downtime = crash
                lost = frac * unit_time
                self.scheduler.at(now + lost, DEVICE_CRASH, (dev_id, lost, downtime))
        self._pending.update(zip(members, due.tolist()))
        if not armed:
            self._emit(UNIT_COMPLETE, due, ids)

    # ------------------------------------------------------------- handlers

    def _on_broadcast_arrival(self, ev) -> None:
        """A broadcast wave lands: bank each member's push, then wake the
        idle members.  ``weights``/``versions`` are lists aligned with
        ``ids`` (replies of one upload wave are stamped at different
        server versions)."""
        ids, weights, versions = ev.payload
        inbox = self._inbox
        for k, dev_id in enumerate(ids.tolist()):
            banked = inbox.get(dev_id)
            # Newest version wins; an older in-flight reply never clobbers it.
            if banked is None or versions[k] >= banked[1]:
                inbox[dev_id] = (weights[k], versions[k])
        self._wake(ids)

    def _train_ahead(self, wave: list[int]) -> None:
        """Make sure every member of ``wave`` has a result in ``_trained``.

        A unit's result depends only on what was fixed when it began — its
        start model, the shard, the epoch count and its ``(dev, 0,
        unit_idx)`` stream (``_unit_idx`` moves only at completion) — so it
        can train any time before its ``unit_complete``.  The wave's
        untrained members train in one ``run_units`` call together with
        the earliest-due other pending units, topping the trained pool up to
        ``_AHEAD`` results; the wave itself is never cut.  Stacking a pool
        instead of one instant's wave is what lines up equal shard sizes.
        """
        pending = self._pending
        ids = [dev_id for dev_id in wave if dev_id in pending]
        if not ids:
            return
        room = _AHEAD - len(self._trained) - len(ids)
        for dev_id in ids:
            del pending[dev_id]
        if room > 0 and pending:
            others = np.fromiter(pending, dtype=np.intp, count=len(pending))
            if room < len(others):
                due = np.fromiter(pending.values(), np.float64, len(pending))
                others = others[np.argsort(due, kind="stable")[:room]]
            for dev_id in others.tolist():
                del pending[dev_id]
                ids.append(dev_id)
        # Each result is its own allocation, so one a device keeps (a
        # parked model, a buffered upload) never pins its whole stack.
        results = [np.empty(self.trainer.dim) for _ in ids]
        members = np.asarray(ids, dtype=np.intp)
        run_units(
            self.batched_trainer,
            self.fleet,
            members,
            self.config.local_epochs,
            0,
            [self._start_model[dev_id] for dev_id in ids],
            results,
            unit_idx=self._unit_idx[members],
        )
        self._trained.update(zip(ids, results))

    def _on_unit_complete(self, ev) -> None:
        """A completion wave.  Its members' units are independent — each
        trains from the start model fixed when its unit began — so the
        results come first (trained now, or earlier by :meth:`_train_ahead`);
        then members are processed in array order — the shared drop-stream
        draws and the upload metering happen exactly as ``len(ids)``
        consecutive single-device events would — and the uploads and the
        next units go out as waves of their own."""
        armed = self._fault_machinery
        uploads: list[tuple] = []
        next_ids: list[int] = []
        ids = ev.payload.tolist()
        self._train_ahead(ids)
        for dev_id in ids:
            trained = self._trained.pop(dev_id)
            start = self._start_model[dev_id]
            if armed:
                self._unit_events.pop(dev_id, None)
            self._unit_idx[dev_id] += 1
            self._own_model[dev_id] = trained
            if self._offline_mask[dev_id]:
                # Went offline mid-unit: the result stays local, the device
                # parks until a later availability epoch brings it back.
                self._parked_mask[dev_id] = True
                continue
            payload = trained
            if armed and self.faults.is_byzantine(dev_id):
                # The device trains honestly (its own state is `trained`) but
                # lies on the wire.
                payload = self.faults.corrupt(trained, dev_id, self._fault_rng)
                self.resilience.injected_corruptions += 1
            row = self._send_attempt(
                dev_id, payload, start, int(self._base_version[dev_id]), 0
            )
            if row is not None:
                uploads.append(row)
            next_ids.append(dev_id)
        self._emit_after(UPLOAD_ARRIVAL, uploads)
        if next_ids:
            self._begin_units(np.asarray(next_ids, dtype=np.intp))

    def _send_attempt(
        self,
        dev_id: int,
        payload: np.ndarray,
        start: np.ndarray,
        base_version: int,
        attempt: int,
    ) -> tuple | None:
        """One upload transmission (original or retry): returns the
        ``(latency, dev_id, delivered, start, base_version, token)`` row
        for the caller to emit as an ``upload_arrival``, None when the
        message is lost.  With the fault machinery armed every attempt
        first arms an ``upload_timeout`` retransmission timer — its
        ``token`` rides with the upload and cancels the timer when the
        delivery is processed; ``token`` is None on the clean path."""
        delivered, lat = self.link_send(dev_id, payload, up_from=start)
        token = None
        if self._fault_machinery:
            self.resilience.uploads_sent += 1
            token = self._upload_seq
            self._upload_seq += 1
            timer = self.scheduler.at(
                self.scheduler.now + self.config.upload_timeout, UPLOAD_TIMEOUT, token
            )
            self._upload_timers[token] = (
                timer, dev_id, payload, start, base_version, attempt,
            )
        if delivered is None:
            return None
        return lat, dev_id, delivered, start, base_version, token

    def _on_upload_timeout(self, ev) -> None:
        """The retransmission timer matured unacknowledged: the upload was
        dropped (or its link is slower than the timeout).  Back off
        exponentially and retry, up to ``config.max_retries``."""
        token = ev.payload
        record = self._upload_timers.pop(token, None)
        if record is None:
            return  # acknowledged before the timer fired
        _, dev_id, payload, start, base_version, attempt = record
        res = self.resilience
        res.upload_timeouts += 1
        if attempt >= self.config.max_retries or self._finished:
            res.dropped_updates += 1
            return
        res.retries += 1
        backoff = self.config.retry_backoff * (2.0 ** attempt)
        self.scheduler.at(
            self.scheduler.now + backoff,
            RETRY_UPLOAD,
            (dev_id, payload, start, base_version, attempt + 1),
        )

    def _on_retry_upload(self, ev) -> None:
        dev_id, payload, start, base_version, attempt = ev.payload
        if self._crashed[dev_id]:
            # The retransmission queue dies with its device: the retry the
            # timeout booked is never sent, so it is reclassified as a
            # drop (upload_timeouts == retries + dropped_updates).
            self.resilience.retries -= 1
            self.resilience.dropped_updates += 1
            return
        row = self._send_attempt(dev_id, payload, start, base_version, attempt)
        if row is not None:
            self._emit_after(UPLOAD_ARRIVAL, [row])

    def _on_device_crash(self, ev) -> None:
        """Fail-stop mid-unit: the pending ``unit_complete`` is cancelled
        (the cancellable-timer path), the partial work is lost — a result
        trained ahead included — and the heartbeat chain goes silent until
        restart."""
        dev_id, lost, downtime = ev.payload
        pending = self._unit_events.pop(dev_id, None)
        if pending is not None:
            self.scheduler.cancel(pending)
        self._pending.pop(dev_id, None)
        self._trained.pop(dev_id, None)
        beat = self._beat_events.pop(dev_id, None)
        if beat is not None:
            self.scheduler.cancel(beat)
        self._crashed[dev_id] = True
        self._crash_detected[dev_id] = False
        self._parked_mask[dev_id] = False
        res = self.resilience
        res.injected_crashes += 1
        res.wasted_time += lost
        self.scheduler.at(self.scheduler.now + downtime, DEVICE_RESTART, dev_id)

    def _on_device_restart(self, ev) -> None:
        dev_id = ev.payload
        self._crashed[dev_id] = False
        # Immediate rejoin announcement: the beat un-suspects the device
        # and restarts its heartbeat chain.
        self._schedule_beat(dev_id, self.scheduler.now)
        # Back idle: a unit starts now if the device is online, else at
        # the availability epoch that brings it back.
        self._parked_mask[dev_id] = True
        self._wake(np.asarray([dev_id]))

    def _schedule_beat(self, dev_id: int, time: float) -> None:
        self._beat_events[dev_id] = self.scheduler.at(time, HEARTBEAT, dev_id)

    def _on_heartbeat(self, ev) -> None:
        dev_id = ev.payload
        self._last_heard[dev_id] = ev.time
        # A beat from a suspected device is a rejoin: forgive it.
        self._suspected[dev_id] = False
        self._schedule_beat(dev_id, ev.time + self.config.heartbeat_period)

    def _on_suspect(self, ev) -> None:
        """Failure-detector sweep: park devices silent past the suspicion
        timeout.  A suspicion of a genuinely crashed device is a
        *detection* (counted once per crash); of a live one, a false
        suspicion its next beat will clear."""
        cfg: AsyncServerConfig = self.config  # type: ignore[assignment]
        now = ev.time
        ids = self._cohort_ids
        silent = ids[
            ~self._suspected[ids]
            & (now - self._last_heard[ids] > cfg.suspicion_timeout)
        ]
        self._suspected[silent] = True
        crashed = self._crashed[silent]
        detected = silent[crashed & ~self._crash_detected[silent]]
        self._crash_detected[detected] = True
        self.resilience.detected_crashes += len(detected)
        self.resilience.false_suspicions += int(np.count_nonzero(~crashed))
        self.scheduler.at(now + cfg.heartbeat_period, SUSPECT)

    def _on_upload_arrival(self, ev) -> None:
        """An upload wave lands.  Members aggregate in array order —
        staleness is read against the version as it stands when each
        member's turn comes, exactly as consecutive single-device events
        would — and the replies go out as a wave of their own, each
        stamped with the version current at its member's reply moment."""
        ids, payloads, starts, versions, tokens = ev.payload
        replies: list[tuple] = []
        for k, dev_id in enumerate(ids.tolist()):
            if tokens[k] is not None:
                record = self._upload_timers.pop(tokens[k], None)
                if record is not None:
                    self.scheduler.cancel(record[0])
            staleness = self._version - versions[k]
            if self.apply_upload(dev_id, payloads[k], starts[k], staleness):
                self._deployed_weights = self.global_weights
                self._after_aggregate()
            if self._finished:
                # stop() keeps the rest of the wave from ever dispatching
                # (so it is un-counted), and the finisher gets no reply.
                self.scheduler.events_processed -= len(ids) - (k + 1)
                break
            reply, lat = self.link_send(dev_id, self.global_weights)
            if reply is not None:
                replies.append((lat, dev_id, reply, self._version))
        self._emit_after(BROADCAST_ARRIVAL, replies)

    def _on_availability_change(self, ev) -> None:
        """Churn epoch boundary: re-draw who is online (same rng stream
        family as the synchronous per-round masks, keyed by epoch), park
        departures at their next unit end, wake returners now.

        O(active) churn: the draw is one vectorized mask over the cohort
        id array, the offline mask is rewritten by one scatter over the
        cohort, and the only devices *touched* are the wakers — parked
        devices whose state actually flips online."""
        epoch = ev.payload
        rng = self._seeds.generator(epoch, _AVAILABILITY_STREAM)
        cohort_ids = self._cohort_ids
        online = self.env.online_mask_ids(
            epoch, cohort_ids, self._unit_time_of[cohort_ids], rng
        )
        self._offline_mask[cohort_ids] = ~online
        self.unavailable_count += int(len(cohort_ids) - online.sum())
        self._wake(self._sorted_ids)
        self.scheduler.at(
            (epoch + 1) * self._churn_period, AVAILABILITY_CHANGE, epoch + 1
        )

    def _after_aggregate(self) -> None:
        """Bookkeeping after a new global version: periodic round-indexed
        eval (version plays the round's role) and termination."""
        final = self._version >= self.config.rounds
        self._record_step(self._version, final)
        if final:
            self._finished = True
            self.scheduler.stop()

    # --------------------------------------------------------------- driver

    def fit(self, initial_weights: np.ndarray | None = None) -> RunResult:
        """Run the event loop until ``config.rounds`` aggregations land."""
        if initial_weights is not None:
            self.global_weights = np.asarray(initial_weights, dtype=np.float64).copy()
        cfg: AsyncServerConfig = self.config  # type: ignore[assignment]
        sched = Scheduler(clock=self.clock, record_trace=self.record_trace)
        self.scheduler = sched
        self._version = 0
        self._finished = False
        self._deployed_weights = self.global_weights
        self._checkpoint_eval = None

        self._cohort_ids = cohort_ids = self._select_cohort()
        ids = cohort_ids.tolist()
        # Ascending ids: the order wake-ups and heartbeats are scheduled in.
        self._sorted_ids = np.sort(cohort_ids)
        # Object-valued state (model references, event handles) is keyed by
        # cohort member — never population-sized.
        self._start_model: dict[int, np.ndarray] = {}
        self._own_model = dict.fromkeys(ids, self.global_weights)
        self._inbox: dict[int, tuple[np.ndarray, int]] = {}
        # Every in-flight unit is in exactly one of these: begun but not yet
        # trained (id -> due time), or trained ahead of its completion.
        self._pending: dict[int, float] = {}
        self._trained: dict[int, np.ndarray] = {}
        # Numeric per-device state lives in id-indexed arrays (ids index
        # them directly; untouched pages of a sparse cohort stay unmapped),
        # so churn epochs, wake-ups and suspicion sweeps are array ops over
        # the cohort instead of per-device dict/set churn.
        bound = int(cohort_ids.max()) + 1 if ids else 1
        self._unit_idx = np.zeros(bound, dtype=np.int64)
        self._base_version = np.zeros(bound, dtype=np.int64)
        self._unit_time_of = np.zeros(bound, dtype=np.float64)
        self._unit_time_of[cohort_ids] = self.fleet.unit_times[cohort_ids]
        self._offline_mask = np.zeros(bound, dtype=bool)
        self._parked_mask = np.zeros(bound, dtype=bool)
        self._parked_mask[cohort_ids] = True
        self._churn_period = (
            cfg.churn_period
            if cfg.churn_period is not None
            else float(self._unit_time_of[cohort_ids].max())
        )

        # Fault-tolerance state.  The containers exist unconditionally (so
        # handlers can consult them cheaply) but nothing populates them —
        # and no fault event is ever scheduled — unless the machinery is
        # armed by a non-null fault model.
        self._fault_machinery = not self.faults.is_null
        self._crashed = np.zeros(bound, dtype=bool)
        self._suspected = np.zeros(bound, dtype=bool)
        self._crash_detected = np.zeros(bound, dtype=bool)
        self._last_heard = np.zeros(bound, dtype=np.float64)
        self._unit_events: dict[int, object] = {}
        self._beat_events: dict[int, object] = {}
        self._upload_timers: dict[int, tuple] = {}
        self._upload_seq = 0

        sched.on(BROADCAST_ARRIVAL, self._on_broadcast_arrival)
        sched.on(UNIT_COMPLETE, self._on_unit_complete)
        sched.on(UPLOAD_ARRIVAL, self._on_upload_arrival)
        sched.on(AVAILABILITY_CHANGE, self._on_availability_change)
        sched.on(EVAL_CHECKPOINT, self._on_eval_checkpoint)
        if self._fault_machinery:
            self._fault_rng = self._seeds.generator(*_FAULT_ASYNC_STREAM_KEY)
            sched.on(UPLOAD_TIMEOUT, self._on_upload_timeout)
            sched.on(RETRY_UPLOAD, self._on_retry_upload)
            sched.on(DEVICE_CRASH, self._on_device_crash)
            sched.on(DEVICE_RESTART, self._on_device_restart)
            sched.on(HEARTBEAT, self._on_heartbeat)
            sched.on(SUSPECT, self._on_suspect)
            for dev_id in self._sorted_ids.tolist():
                self._schedule_beat(dev_id, cfg.heartbeat_period)
            sched.at(cfg.suspicion_timeout, SUSPECT)
        if not self.env.availability.always_on:
            sched.at(self._churn_period, AVAILABILITY_CHANGE, 1)
        if cfg.eval_time_every is not None:
            sched.at(cfg.eval_time_every, EVAL_CHECKPOINT)

        # t=0 provisioning: the server pushes the initial model to the
        # whole cohort, lossless and dense, over each device's link.
        n = len(ids)
        w0 = self.global_weights
        lats = self.provision(cohort_ids, w0)
        self._emit(BROADCAST_ARRIVAL, lats, cohort_ids, [w0] * n, [0] * n)

        sched.run()
        # Units trained ahead of a completion the run never reached.
        self._trained.clear()
        return self._assemble_result()

    def run_round(self, round_idx, ids, global_weights):
        raise NotImplementedError(
            "async servers run on the event loop, not per-round hooks"
        )
