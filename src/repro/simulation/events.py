"""Time-ordered event queues.

Ties on the timestamp break by insertion order (a monotone sequence
number), making simulations deterministic independent of queue internals.

Two implementations of one contract:

* :class:`EventQueue` — a single binary heap.  O(log n) per operation
  with n the *total* number of scheduled events; the reference
  implementation the calendar queue is property-tested against, kept for
  tests and benches only.
* :class:`CalendarQueue` — the scheduler's queue: a rotating bucket wheel
  over virtual time
  with a heap-based overflow tier (Brown's calendar queue, adapted).
  Near-future events land in per-bucket append lists (O(1) push), only
  the currently draining bucket lives in a small "front" heap, and
  events beyond the wheel's window wait in an overflow heap.  Per-event
  cost is O(log b) with b the *bucket* occupancy — at fleet scale b is
  orders of magnitude below n, which is what lets a million-device
  schedule dispatch at heap-free speed.

Both queues dispatch in exactly the same order.  The calendar queue
partitions events by disjoint virtual-time ranges (front < wheel <
overflow at all times) and resolves ties by sequence number inside each
tier, so the global ``(time, seq)`` order is preserved by construction —
bucket width affects only performance, never order.  The property tests
in ``tests/simulation/test_calendar_queue.py`` drive both through random
push/cancel/pop/lag schedules and assert element-for-element equality.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Event", "EventQueue", "CalendarQueue"]


@dataclass(order=True)
class Event:
    """A scheduled occurrence: compare by (time, seq).

    ``cancelled`` supports O(1) revocation: the scheduler marks the event
    dead in place and skips it on pop instead of re-heapifying.
    ``fired`` is set by the scheduler when the event is dispatched, making
    a late ``cancel()`` on a handle that already fired a safe no-op — the
    cancellable-timer contract (upload timeouts, pending unit completions)
    relies on it.

    ``members`` is the logical event count this entry carries: 1 for the
    classic one-device-one-event payloads, ``len(payload)`` for batched
    events whose payload is an id array (one ``unit_complete`` entry
    standing for a whole completion wave).  The scheduler's pending
    counters and ``events_processed`` count members, so throughput and
    emptiness semantics are independent of how events are packed.
    """

    time: float
    seq: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False, default=None)
    cancelled: bool = field(compare=False, default=False)
    fired: bool = field(compare=False, default=False)
    members: int = field(compare=False, default=1)


class EventQueue:
    """Min-heap of :class:`Event` with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: str, payload: Any = None, members: int = 1) -> Event:
        """Schedule an event at absolute virtual time ``time``."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        ev = Event(
            time=float(time), seq=next(self._counter), kind=kind,
            payload=payload, members=members,
        )
        heapq.heappush(self._heap, ev)
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        return heapq.heappop(self._heap)

    def peek(self) -> Event:
        """Earliest event without removing it."""
        if not self._heap:
            raise IndexError("peek on empty EventQueue")
        return self._heap[0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class CalendarQueue:
    """Bucketed event queue: a rotating wheel over virtual time plus a
    heap overflow tier, dispatching in exact ``(time, seq)`` order.

    Layout (three disjoint virtual-time tiers, earliest first):

    * **front** — a small heap of ``(time, seq, event)`` tuples holding
      every event at or before the bucket currently being drained,
      including *lagged* pushes (nominal time already passed).
    * **wheel** — ``num_buckets`` unsorted append-lists; absolute bucket
      ``b = floor(time / width)`` maps to slot ``b % num_buckets``, valid
      while ``b`` lies within one wheel revolution of the cursor.  A push
      here is a list append; the bucket is heapified wholesale only when
      the cursor reaches it.
    * **overflow** — a plain heap for events beyond the wheel's window;
      drained into the front as the cursor sweeps past their buckets.

    Front times are strictly below wheel times, which are strictly below
    nothing in overflow that the cursor has not yet reached — so the
    front's minimum is always the global minimum, and ties (same time)
    can only meet inside one heap, where the sequence number breaks them.
    Bucket width is chosen once, from the spread of the first batch of
    events, and affects performance only: a degenerate width turns the
    structure into a slightly indirect binary heap, never reorders it.

    Cancellation is inherited from the scheduler's lazy protocol: a
    cancelled event stays in place and is skipped when popped.
    """

    def __init__(self, num_buckets: int = 256) -> None:
        if num_buckets <= 0:
            raise ValueError(f"num_buckets must be positive, got {num_buckets}")
        self._n = int(num_buckets)
        self._counter = itertools.count()
        self._front: list[tuple[float, int, Event]] = []
        self._buckets: list[list[tuple[float, int, Event]]] = [
            [] for _ in range(self._n)
        ]
        self._overflow: list[tuple[float, int, Event]] = []
        self._width: float | None = None  # set on the first drain
        self._cur = -1  # absolute index of the bucket being drained
        self._wheel_count = 0

    def push(self, time: float, kind: str, payload: Any = None, members: int = 1) -> Event:
        """Schedule an event at absolute virtual time ``time``."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        time = float(time)
        ev = Event(
            time=time, seq=next(self._counter), kind=kind,
            payload=payload, members=members,
        )
        entry = (time, ev.seq, ev)
        width = self._width
        if width is None:
            # Uninitialized wheel: accumulate in the overflow heap (always
            # correct); the first drain picks the width from what arrived.
            heapq.heappush(self._overflow, entry)
            return ev
        b = int(time / width)
        if b <= self._cur:
            # Current-bucket or lagged push: competes with the front heap.
            heapq.heappush(self._front, entry)
        elif b - self._cur <= self._n:
            self._buckets[b % self._n].append(entry)
            self._wheel_count += 1
        else:
            heapq.heappush(self._overflow, entry)
        return ev

    # ------------------------------------------------------------ internals

    def _init_width(self) -> None:
        """Pick the bucket width from the first resident batch: ~3 average
        inter-event gaps per bucket, the classic calendar-queue sizing."""
        times = [entry[0] for entry in self._overflow]
        lo, hi = min(times), max(times)
        span = hi - lo
        if span <= 0.0:
            width = 1.0
        else:
            width = 3.0 * span / len(times)
        self._width = width
        self._cur = int(lo / width) - 1

    def _refill_front(self) -> None:
        """Advance the cursor until the front holds the earliest events."""
        if self._width is None:
            if not self._overflow:
                return
            self._init_width()
        width = self._width
        n = self._n
        overflow = self._overflow
        front = self._front
        while not front:
            if self._wheel_count:
                # Sweep to the next bucket; its slot can only hold entries
                # of exactly this absolute index (later revolutions are
                # routed to overflow until the cursor frees the slot).
                self._cur += 1
            elif overflow:
                # Wheel empty: jump the cursor straight to the first
                # overflow bucket instead of sweeping empty slots.
                self._cur = max(self._cur + 1, int(overflow[0][0] / width))
            else:
                return  # queue is empty
            slot = self._buckets[self._cur % n]
            if slot:
                front.extend(slot)
                self._wheel_count -= len(slot)
                slot.clear()
            # Same floor-index predicate as push routing (never a raw time
            # bound): ``int(t / width)`` is monotone in ``t``, so strictly
            # ordering the *indices* across tiers strictly orders the times
            # — immune to float wobble at bucket boundaries.
            while overflow and int(overflow[0][0] / width) <= self._cur:
                front.append(heapq.heappop(overflow))
            if front:
                heapq.heapify(front)

    # ------------------------------------------------------------ interface

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._front:
            self._refill_front()
            if not self._front:
                raise IndexError("pop from empty CalendarQueue")
        return heapq.heappop(self._front)[2]

    def peek(self) -> Event:
        """Earliest event without removing it."""
        if not self._front:
            self._refill_front()
            if not self._front:
                raise IndexError("peek on empty CalendarQueue")
        return self._front[0][2]

    def __len__(self) -> int:
        return len(self._front) + self._wheel_count + len(self._overflow)

    def __bool__(self) -> bool:
        return bool(self._front or self._wheel_count or self._overflow)
