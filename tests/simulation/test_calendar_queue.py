"""Property tests pinning the CalendarQueue to the heap reference.

The calendar queue's only contract is *exact* dispatch-order equality
with :class:`~repro.simulation.events.EventQueue` — bucket width, wheel
size and overflow handling are performance details that must never be
observable.  These tests drive both engines through identical random
schedules (pushes, lagged pushes, cancels, batched events, interleaved
pops, ``finish_at`` horizons) and compare element for element.
"""

import numpy as np
import pytest

from repro.simulation import CalendarQueue, EventQueue
from repro.simulation.scheduler import UNIT_COMPLETE, Scheduler


def drain(queue):
    out = []
    while queue:
        ev = queue.pop()
        out.append((ev.time, ev.seq, ev.kind, ev.payload))
    return out


class TestQueueBasics:
    def test_scheduler_runs_on_the_calendar_queue(self):
        assert isinstance(Scheduler().queue, CalendarQueue)

    def test_negative_time_rejected(self):
        for queue in (CalendarQueue, EventQueue):
            with pytest.raises(ValueError):
                queue().push(-0.1, "k")

    def test_empty_pop_and_peek_raise(self):
        q = CalendarQueue()
        with pytest.raises(IndexError):
            q.pop()
        with pytest.raises(IndexError):
            q.peek()
        # ...also after the wheel has been initialized and drained.
        q.push(1.0, "k")
        q.pop()
        with pytest.raises(IndexError):
            q.pop()

    def test_len_spans_all_tiers(self):
        q = CalendarQueue(num_buckets=4)
        for t in (5.0, 0.25, 1000.0, 0.5):
            q.push(t, "k")
        assert len(q) == 4
        q.peek()  # forces width init + tier routing
        q.push(0.0, "lagged")  # front tier
        q.push(2000.0, "far")  # overflow tier
        assert len(q) == 6
        assert [q.pop().time for _ in range(6)] == [
            0.0, 0.25, 0.5, 5.0, 1000.0, 2000.0,
        ]
        assert not q

    def test_bad_bucket_count(self):
        with pytest.raises(ValueError):
            CalendarQueue(num_buckets=0)

    def test_same_time_ties_break_by_insertion(self):
        q = CalendarQueue()
        for payload in range(20):
            q.push(1.0, "k", payload)
        assert [q.pop().payload for _ in range(20)] == list(range(20))


class TestOrderEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_schedules_match_heap(self, seed):
        """Pure pushes at random times (clustered, uniform, identical,
        degenerate spans) drain identically from both engines."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        style = seed % 4
        if style == 0:
            times = rng.uniform(0, 100, n)
        elif style == 1:
            times = rng.choice([0.5, 1.0, 2.5], n)  # heavy ties
        elif style == 2:
            times = rng.exponential(0.01, n)  # tiny span
        else:
            times = np.concatenate(
                [rng.uniform(0, 1, n // 2 + 1), rng.uniform(1e4, 1e6, n // 2)]
            )[:n]  # bimodal: wheel + deep overflow
        heap, cal = EventQueue(), CalendarQueue(num_buckets=16)
        for i, t in enumerate(times):
            heap.push(float(t), "k", i)
            cal.push(float(t), "k", i)
        assert drain(cal) == drain(heap)

    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_push_pop_cancel(self, seed):
        """Random interleaving of pushes (including lagged pushes at or
        before the last popped time), pops and cancels stays element-for-
        element identical — the full protocol the Scheduler exercises."""
        rng = np.random.default_rng(100 + seed)
        heap, cal = EventQueue(), CalendarQueue(num_buckets=8)
        handles = []  # parallel (heap_ev, cal_ev) pairs
        popped = []
        last_time = 0.0
        for step in range(600):
            op = rng.random()
            if op < 0.55:
                # Push; 1 in 5 is lagged (at or before the current front).
                if rng.random() < 0.2:
                    t = max(0.0, last_time - float(rng.exponential(1.0)))
                else:
                    t = last_time + float(rng.exponential(2.0))
                handles.append(
                    (heap.push(t, "k", step), cal.push(t, "k", step))
                )
            elif op < 0.8 and heap:
                h, c = heap.pop(), cal.pop()
                assert (h.time, h.seq, h.payload) == (c.time, c.seq, c.payload)
                last_time = h.time
                popped.append(h.seq)
            elif handles:
                h, c = handles[int(rng.integers(len(handles)))]
                h.cancelled = True
                c.cancelled = True
        # Cancellation is lazy (scheduler-level): both engines still hold
        # the cancelled entries, in the same order.
        tail_heap = [e for e in drain(heap) if True]
        tail_cal = [e for e in drain(cal) if True]
        assert tail_cal == tail_heap

    @pytest.mark.parametrize("seed", range(6))
    def test_scheduler_dispatch_trace_matches(self, seed):
        """Two Schedulers, one on the heap reference, fed the same random mix
        of at/at_many/after/cancel from inside handlers, dispatch the same
        (time, kind, payload) sequence and agree on every counter —
        including under a finish_at horizon."""
        rng_seed = 200 + seed

        def run(heap):
            rng = np.random.default_rng(rng_seed)
            sched = Scheduler()
            if heap:
                sched.queue = EventQueue()
            seen = []
            cancellable = []

            def handler(ev):
                payload = ev.payload
                if isinstance(payload, np.ndarray):
                    seen.append((ev.time, ev.kind, payload.tolist()))
                else:
                    seen.append((ev.time, ev.kind, payload))
                draw = rng.random()
                if draw < 0.35:
                    cancellable.append(
                        sched.at(
                            ev.time + float(rng.exponential(1.0)),
                            UNIT_COMPLETE,
                            int(rng.integers(100)),
                        )
                    )
                elif draw < 0.5:
                    ids = rng.integers(0, 100, int(rng.integers(1, 6)))
                    sched.at_many(
                        ev.time + float(rng.exponential(1.0)),
                        UNIT_COMPLETE,
                        ids.astype(np.int32),
                    )
                elif draw < 0.6 and cancellable:
                    sched.cancel(
                        cancellable.pop(int(rng.integers(len(cancellable))))
                    )

            sched.on(UNIT_COMPLETE, handler)
            for i in range(40):
                sched.at(float(rng.uniform(0, 10)), UNIT_COMPLETE, i)
            if seed % 2:
                sched.finish_at(12.0)
            sched.run(max_events=500)
            return seen, sched.events_processed, sched.pending(), sched.now

        assert run(heap=False) == run(heap=True)


class TestBatchedEvents:
    def test_at_many_counts_members(self):
        sched = Scheduler()
        ev = sched.at_many(1.0, UNIT_COMPLETE, np.arange(5))
        assert ev.members == 5
        assert sched.pending() == 5
        assert sched.pending(UNIT_COMPLETE) == 5
        assert bool(sched)
        sched.step()
        assert sched.events_processed == 5
        assert sched.pending() == 0
        assert not sched

    def test_at_many_payload_dtype_and_validation(self):
        sched = Scheduler()
        ev = sched.at_many(1.0, UNIT_COMPLETE, np.array([3, 1, 2], dtype=np.intp))
        assert ev.payload.dtype == np.int32
        with pytest.raises(ValueError):
            sched.at_many(1.0, UNIT_COMPLETE, np.empty(0, dtype=np.int32))
        with pytest.raises(ValueError):
            sched.at_many(1.0, UNIT_COMPLETE, np.zeros((2, 2), dtype=np.int32))

    def test_at_many_composite_payload(self):
        """A composite payload rides the entry while members still come
        from the id array's length."""
        sched = Scheduler()
        ids = np.array([7, 8], dtype=np.int32)
        ev = sched.at_many(1.0, UNIT_COMPLETE, ids, payload=(ids, ["a", "b"]))
        assert ev.members == 2
        assert ev.payload[1] == ["a", "b"]
        assert sched.pending(UNIT_COMPLETE) == 2

    def test_cancel_batched_restores_member_count(self):
        sched = Scheduler()
        ev = sched.at_many(1.0, UNIT_COMPLETE, np.arange(4))
        sched.at(2.0, UNIT_COMPLETE, 9)
        sched.cancel(ev)
        assert sched.pending() == 1
        assert sched.pending(UNIT_COMPLETE) == 1

    def test_trace_tag_fingerprints_id_arrays(self):
        """Satellite fix: ndarray payloads used to fingerprint as None,
        hiding batched membership from determinism traces."""
        sched = Scheduler(record_trace=True)
        sched.at_many(1.0, UNIT_COMPLETE, np.array([4, 5, 6]))
        sched.at(2.0, UNIT_COMPLETE, 7)
        sched.run()
        assert sched.trace == [
            (1.0, UNIT_COMPLETE, (3, 4, 6)),
            (2.0, UNIT_COMPLETE, 7),
        ]

    def test_trace_tag_composite_batched_payload(self):
        sched = Scheduler(record_trace=True)
        ids = np.array([1, 2], dtype=np.int32)
        sched.at_many(1.0, UNIT_COMPLETE, ids, payload=(ids, ["x", "y"]))
        sched.run()
        assert sched.trace == [(1.0, UNIT_COMPLETE, (2, 1, 2))]
