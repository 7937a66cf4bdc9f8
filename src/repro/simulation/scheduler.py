"""The discrete-event runtime shared by every method.

:class:`Scheduler` marries the :class:`~repro.simulation.events.CalendarQueue`
with the :class:`~repro.simulation.clock.VirtualClock` and makes the clock
the *driver* of a run instead of a passive counter: handlers registered per
event kind are dispatched in strict (time, insertion) order, and the clock
advances to each event as it fires.

Event taxonomy (module constants; ``Event.kind`` strings):

``ROUND_BARRIER``
    One synchronous round.  The classic ``for round in range(rounds)``
    loop is the *degenerate schedule* — each barrier handler runs a full
    round (which advances the clock by transfer + compute time) and pushes
    the next barrier at the new now, so all synchronous methods run on the
    same runtime as the asynchronous ones without a single float changing.
``BROADCAST_ARRIVAL``
    A server→device model push lands after its per-link latency.
``UNIT_COMPLETE``
    A device finishes one local-training unit.
``UPLOAD_ARRIVAL``
    A device→server upload lands after its per-link latency.
``AVAILABILITY_CHANGE``
    Churn epoch boundary: the availability model is re-drawn and devices
    park/rejoin — availability as events, not per-round masks.
``EVAL_CHECKPOINT``
    Virtual-time-indexed evaluation of the deployed global model (the
    time-to-accuracy metric's sampling process).
``PEER_DELIVER``
    A device→device ring hop lands (the FedHiSyn engine's traffic).

Fault-tolerance kinds (the :mod:`repro.faults` subsystem's traffic, armed
only when a fault model is active):

``UPLOAD_TIMEOUT``
    A device→server upload's retransmission timer matures; if the upload
    has not been acknowledged the sender retries with exponential backoff.
``RETRY_UPLOAD``
    A backed-off upload retransmission fires.
``DEVICE_CRASH``
    A device fail-stops mid-unit: its pending ``unit_complete`` is
    cancelled (the partial work is lost) and a restart is scheduled.
``DEVICE_RESTART``
    A crashed device comes back and rejoins the schedule.
``HEARTBEAT``
    A device's periodic liveness beacon reaches the server.
``SUSPECT``
    The failure detector's sweep: devices silent past the suspicion
    timeout are marked suspected and parked.

Lagged events — an event scheduled at a nominal time the clock has already
jumped past (synchronous rounds advance in lumps) — fire immediately at the
current clock, keeping their nominal ``Event.time`` for recording.  This is
what lets time-indexed eval checkpoints coexist with barrier rounds.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.simulation.clock import VirtualClock
from repro.simulation.events import CalendarQueue, Event

__all__ = [
    "Scheduler",
    "ROUND_BARRIER",
    "BROADCAST_ARRIVAL",
    "UNIT_COMPLETE",
    "UPLOAD_ARRIVAL",
    "AVAILABILITY_CHANGE",
    "EVAL_CHECKPOINT",
    "PEER_DELIVER",
    "UPLOAD_TIMEOUT",
    "RETRY_UPLOAD",
    "DEVICE_CRASH",
    "DEVICE_RESTART",
    "HEARTBEAT",
    "SUSPECT",
    "completed_units",
    "completed_units_array",
]

ROUND_BARRIER = "round_barrier"
BROADCAST_ARRIVAL = "broadcast_arrival"
UNIT_COMPLETE = "unit_complete"
UPLOAD_ARRIVAL = "upload_arrival"
AVAILABILITY_CHANGE = "availability_change"
EVAL_CHECKPOINT = "eval_checkpoint"
PEER_DELIVER = "peer_deliver"
UPLOAD_TIMEOUT = "upload_timeout"
RETRY_UPLOAD = "retry_upload"
DEVICE_CRASH = "device_crash"
DEVICE_RESTART = "device_restart"
HEARTBEAT = "heartbeat"
SUSPECT = "suspect"

#: A float-epsilon guard shared by every "how many units fit" computation:
#: ``horizon / t`` lands a hair under an exact integer for many decimal
#: unit times (0.1, 0.2, ...), so a bare ``int()`` would lose a whole unit.
_EPS = 1e-9


def completed_units(horizon: float, unit_time: float) -> int:
    """Training units a device completes in ``horizon``: floor with an
    epsilon guard against ``horizon/t`` landing just under an integer,
    minimum one (Algorithm 1 line 11 always enters the loop).

    The single source of the ``int(horizon / t + 1e-9)`` idiom that used
    to be re-derived by the ring engine, the server's epoch budget and
    :func:`async_upload_schedule`.
    """
    if unit_time <= 0:
        raise ValueError(f"unit_time must be positive, got {unit_time}")
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return max(1, int(horizon / unit_time + _EPS))


def completed_units_array(horizon: float, unit_times: np.ndarray) -> np.ndarray:
    """Vectorized :func:`completed_units` over a unit-time array.

    Bit-compatible with the scalar form: identical epsilon, identical
    floor, identical minimum-one clamp.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return np.maximum(1, (horizon / unit_times + _EPS).astype(np.intp))


class Scheduler:
    """Dispatches events in virtual-time order and advances the clock.

    Events live in a :class:`~repro.simulation.events.CalendarQueue`.  Its
    reference, the binary-heap :class:`~repro.simulation.events.EventQueue`,
    dispatches in exactly the same order; tests and benches swap it in by
    assigning ``sched.queue = EventQueue()`` before scheduling anything.

    Parameters
    ----------
    clock:
        The clock to drive (the server passes its own so history records
        and event times share one timeline); a fresh clock by default.
    record_trace:
        When True, every dispatched event appends ``(time, kind, tag)`` to
        :attr:`trace` — the determinism tests compare whole traces of
        identically seeded runs.
    """

    def __init__(
        self,
        clock: VirtualClock | None = None,
        record_trace: bool = False,
    ) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self.queue = CalendarQueue()
        self._handlers: dict[str, Callable[[Event], None]] = {}
        self._pending: dict[str, int] = {}
        # Running total of live scheduled members — kept in lockstep with
        # ``_pending`` so the hot loop's emptiness checks (``__bool__``,
        # ``pending()``) are O(1) instead of re-summing a dict.
        self._live = 0
        self._finish_at: float | None = None
        self._stopped = False
        self.events_processed = 0
        self.trace: list[tuple[float, str, Any]] | None = (
            [] if record_trace else None
        )

    # ------------------------------------------------------------- queries

    @property
    def now(self) -> float:
        """The current virtual time."""
        return self.clock.now

    def pending(self, kind: str | None = None) -> int:
        """Live (non-cancelled) scheduled logical events, optionally of one
        kind.  A batched event (see :meth:`at_many`) counts each carried
        member: packing a wave of completions into one entry never changes
        what "pending work" means."""
        if kind is not None:
            return self._pending.get(kind, 0)
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ---------------------------------------------------------- scheduling

    def at(self, time: float, kind: str, payload: Any = None) -> Event:
        """Schedule an event at absolute virtual time ``time``.

        ``time`` may lie in the clock's past (a *lagged* event): it fires
        on the next step without moving the clock backwards, keeping its
        nominal timestamp for ordering and recording.
        """
        ev = self.queue.push(time, kind, payload)
        self._pending[kind] = self._pending.get(kind, 0) + 1
        self._live += 1
        return ev

    def at_many(
        self, time: float, kind: str, ids: np.ndarray, payload: Any = None
    ) -> Event:
        """Schedule one *batched* event carrying an id array.

        The single entry stands for ``len(ids)`` logical events of
        ``kind``, one per device id, sharing a timestamp — the payload is
        the int32 id array itself, or ``payload`` when the members carry
        data beyond their ids (a composite whose first element is the id
        array, e.g. an upload wave's per-member models).  Handlers consume
        the array in order; the pending counters and ``events_processed``
        count the members, so every scheduler-level observable matches
        ``len(ids)`` consecutive :meth:`at` calls at the same time.
        """
        ids = np.ascontiguousarray(ids, dtype=np.int32)
        if ids.ndim != 1 or not len(ids):
            raise ValueError(
                f"at_many needs a non-empty 1-D id array, got shape {ids.shape}"
            )
        n = len(ids)
        ev = self.queue.push(time, kind, ids if payload is None else payload, members=n)
        self._pending[kind] = self._pending.get(kind, 0) + n
        self._live += n
        return ev

    def after(self, delay: float, kind: str, payload: Any = None) -> Event:
        """Schedule an event ``delay`` virtual-time units from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.at(self.clock.now + delay, kind, payload)

    def cancel(self, event: Event) -> None:
        """Mark a scheduled event dead; it is skipped when popped.

        Cancelling an event that already fired is a no-op: a timer handle
        held past its dispatch (an upload acknowledged exactly when its
        timeout matured, a crash racing a unit completion) must not
        corrupt the pending counters or resurrect the handle.
        """
        if not event.cancelled and not event.fired:
            event.cancelled = True
            self._pending[event.kind] -= event.members
            self._live -= event.members

    def on(self, kind: str, handler: Callable[[Event], None]) -> None:
        """Register the handler dispatched for ``kind`` events."""
        self._handlers[kind] = handler

    # ----------------------------------------------------------- execution

    def stop(self) -> None:
        """Halt :meth:`run` immediately; queued events are not dispatched."""
        self._stopped = True

    def finish_at(self, time: float) -> None:
        """Drain events up to and including ``time``, then halt :meth:`run`.

        The synchronous servers call this at the last round barrier: eval
        checkpoints that matured during the final round still fire, while
        future-dated ones are discarded instead of dragging the clock past
        the end of training.
        """
        self._finish_at = float(time)

    def _next_live(self) -> Event | None:
        """Earliest non-cancelled event without popping it."""
        while self.queue:
            ev = self.queue.peek()
            if ev.cancelled:
                self.queue.pop()
                continue
            return ev
        return None

    def step(self) -> Event | None:
        """Pop, clock-advance to, and dispatch the earliest event.

        Returns the dispatched event, or None when the queue is empty.
        Events never move the clock backwards: a lagged event fires at the
        current now.
        """
        ev = self._next_live()
        if ev is None:
            return None
        self.queue.pop()
        self._pending[ev.kind] -= ev.members
        self._live -= ev.members
        ev.fired = True
        if ev.time > self.clock.now:
            self.clock.advance_to(ev.time)
        self.events_processed += ev.members
        if self.trace is not None:
            self.trace.append((ev.time, ev.kind, _trace_tag(ev.payload)))
        handler = self._handlers.get(ev.kind)
        if handler is not None:
            handler(ev)
        return ev

    def next_batch(self) -> list[Event]:
        """Pop every event sharing the earliest timestamp, advance the
        clock there, and return them in insertion order *without*
        dispatching handlers.

        The FedHiSyn ring engine consumes batches directly: with zero link
        delay a model completed at time t must be visible to the unit its
        successor starts at t, so all of t's events form one lockstep
        phase (Algorithm 1's synchronous rotation).
        """
        first = self._next_live()
        if first is None:
            return []
        batch: list[Event] = []
        now = first.time
        while True:
            ev = self._next_live()
            if ev is None or ev.time != now:
                break
            self.queue.pop()
            self._pending[ev.kind] -= ev.members
            self._live -= ev.members
            ev.fired = True
            self.events_processed += ev.members
            if self.trace is not None:
                self.trace.append((ev.time, ev.kind, _trace_tag(ev.payload)))
            batch.append(ev)
        if now > self.clock.now:
            self.clock.advance_to(now)
        return batch

    def run(self, max_events: int | None = None) -> int:
        """Dispatch events until the queue drains, :meth:`stop` is called,
        or every remaining event lies beyond a :meth:`finish_at` horizon.
        Returns the number of events dispatched by this call."""
        dispatched = 0
        self._stopped = False
        while not self._stopped:
            if max_events is not None and dispatched >= max_events:
                break
            ev = self._next_live()
            if ev is None:
                break
            if self._finish_at is not None and ev.time > self._finish_at:
                break
            self.step()
            dispatched += 1
        return dispatched


def _trace_tag(payload: Any) -> Any:
    """A comparable, array-free fingerprint of an event payload.

    Batched payloads (id arrays, or tuples led by one) fingerprint as
    ``(len, first_id, last_id)`` — ndarrays are not ``Sequence`` instances,
    so without the explicit branch they would collapse to ``None`` and the
    determinism-trace tests could not see a batched event's membership.
    """
    if payload is None or isinstance(payload, (int, float, str)):
        return payload
    if isinstance(payload, np.ndarray):
        if not payload.size:
            return (0, None, None)
        flat = payload.ravel()
        return (int(payload.size), flat[0].item(), flat[-1].item())
    if isinstance(payload, Sequence):
        head = payload[0] if len(payload) else None
        if isinstance(head, (int, float, str)):
            return head
        if isinstance(head, np.ndarray):
            return _trace_tag(head)
        return None
    return None
