"""Tests for the shared discrete-event Scheduler and its timing helpers."""

import numpy as np
import pytest

from repro.simulation.scheduler import (
    AVAILABILITY_CHANGE,
    EVAL_CHECKPOINT,
    UNIT_COMPLETE,
    Scheduler,
    completed_units,
    completed_units_array,
)


class TestCompletedUnits:
    def test_exact_division(self):
        assert completed_units(4.0, 1.0) == 4

    def test_epsilon_guard(self):
        """0.3 / 0.1 is 2.9999...: the epsilon must recover the third unit."""
        assert completed_units(0.3, 0.1) == 3
        assert completed_units(0.7, 0.1) == 7

    def test_minimum_one(self):
        assert completed_units(0.5, 2.0) == 1

    def test_matches_array_form(self):
        times = np.array([0.1, 0.25, 0.5, 1.0, 3.0, 1 / 3])
        horizon = 1.0
        scalars = [completed_units(horizon, float(t)) for t in times]
        np.testing.assert_array_equal(
            completed_units_array(horizon, times), scalars
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            completed_units(0.0, 1.0)
        with pytest.raises(ValueError):
            completed_units(1.0, 0.0)
        with pytest.raises(ValueError):
            completed_units_array(0.0, np.ones(2))


class TestSchedulerOrdering:
    def test_dispatch_in_time_order(self):
        sched = Scheduler()
        seen = []
        sched.on("a", lambda ev: seen.append(ev.time))
        sched.at(3.0, "a")
        sched.at(1.0, "a")
        sched.at(2.0, "a")
        sched.run()
        assert seen == [1.0, 2.0, 3.0]

    def test_equal_timestamps_pop_in_insertion_order(self):
        sched = Scheduler()
        seen = []
        for tag in ("first", "second", "third"):
            sched.at(1.0, "k", tag)
        sched.on("k", lambda ev: seen.append(ev.payload))
        sched.run()
        assert seen == ["first", "second", "third"]

    def test_interleaved_push_pop_preserves_total_order(self):
        """Events scheduled from inside handlers keep the global order."""
        sched = Scheduler()
        seen = []

        def handler(ev):
            seen.append((ev.time, ev.payload))
            if ev.payload == "early":
                sched.at(2.0, "k", "mid")  # lands between pending events

        sched.on("k", handler)
        sched.at(5.0, "k", "late")
        sched.at(1.0, "k", "early")
        sched.run()
        assert seen == [(1.0, "early"), (2.0, "mid"), (5.0, "late")]

    def test_clock_advances_to_events(self):
        sched = Scheduler()
        sched.at(2.5, "k")
        sched.run()
        assert sched.now == 2.5

    def test_lagged_event_fires_without_clock_reversal(self):
        """An event scheduled in the clock's past (sync rounds jump the
        clock) fires at the current now, keeping its nominal time."""
        sched = Scheduler()
        sched.at(10.0, "jump")
        fired = []
        sched.on("jump", lambda ev: sched.at(3.0, "lagged"))
        sched.on("lagged", lambda ev: fired.append((ev.time, sched.now)))
        sched.run()
        assert fired == [(3.0, 10.0)]

    def test_after_is_relative_to_now(self):
        sched = Scheduler()
        sched.at(2.0, "k")
        times = []

        def handler(ev):
            if ev.payload is None:
                sched.after(1.5, "k", "second")
            times.append(sched.now)

        sched.on("k", handler)
        sched.run()
        assert times == [2.0, 3.5]


class TestSchedulerControl:
    def test_cancel_skips_event(self):
        sched = Scheduler()
        seen = []
        sched.on("k", lambda ev: seen.append(ev.payload))
        keep = sched.at(1.0, "k", "keep")  # noqa: F841
        drop = sched.at(2.0, "k", "drop")
        sched.cancel(drop)
        assert sched.pending("k") == 1
        sched.run()
        assert seen == ["keep"]

    def test_stop_halts_immediately(self):
        sched = Scheduler()
        seen = []

        def handler(ev):
            seen.append(ev.payload)
            sched.stop()

        sched.on("k", handler)
        sched.at(1.0, "k", 1)
        sched.at(2.0, "k", 2)
        sched.run()
        assert seen == [1]
        assert sched.pending() == 1  # the undelivered event stays queued

    def test_finish_at_drains_matured_only(self):
        sched = Scheduler()
        seen = []
        sched.on("k", lambda ev: seen.append(ev.time))
        sched.at(1.0, "k")
        sched.at(2.0, "k")
        sched.at(5.0, "k")
        sched.finish_at(2.0)
        sched.run()
        assert seen == [1.0, 2.0]
        assert sched.now == 2.0  # the future event never dragged the clock

    def test_max_events_bounds_run(self):
        sched = Scheduler()
        sched.on("k", lambda ev: sched.after(1.0, "k"))
        sched.at(0.0, "k")
        assert sched.run(max_events=10) == 10

    def test_pending_counters(self):
        sched = Scheduler()
        sched.at(1.0, UNIT_COMPLETE)
        sched.at(2.0, UNIT_COMPLETE)
        sched.at(3.0, EVAL_CHECKPOINT)
        assert sched.pending() == 3
        assert sched.pending(UNIT_COMPLETE) == 2
        assert sched.pending(EVAL_CHECKPOINT) == 1
        assert bool(sched)
        sched.run()
        assert not sched

    def test_events_processed_counts(self):
        sched = Scheduler()
        for t in (1.0, 2.0, 3.0):
            sched.at(t, "k")
        sched.run()
        assert sched.events_processed == 3

    def test_next_batch_pops_equal_timestamps(self):
        sched = Scheduler()
        sched.at(1.0, "a", 0)
        sched.at(1.0, "b", 1)
        sched.at(2.0, "a", 2)
        batch = sched.next_batch()
        assert [(ev.kind, ev.payload) for ev in batch] == [("a", 0), ("b", 1)]
        assert sched.now == 1.0
        assert [ev.payload for ev in sched.next_batch()] == [2]
        assert sched.next_batch() == []


class TestEventTraces:
    def test_trace_disabled_by_default(self):
        sched = Scheduler()
        sched.at(1.0, "k")
        sched.run()
        assert sched.trace is None

    def test_trace_records_time_kind_tag(self):
        sched = Scheduler(record_trace=True)
        sched.at(1.0, UNIT_COMPLETE, 7)
        sched.at(2.0, AVAILABILITY_CHANGE, 1)
        sched.run()
        assert sched.trace == [
            (1.0, UNIT_COMPLETE, 7),
            (2.0, AVAILABILITY_CHANGE, 1),
        ]

    def test_identically_seeded_async_runs_have_identical_traces(
        self, tiny_devices, tiny_split
    ):
        """The determinism contract of the async runtime: same seed, same
        event trace, event for event — under churn and message drops."""
        from repro.baselines.fedasync import FedAsyncConfig, FedAsyncServer
        from repro.env.registry import make_environment

        _, test_set = tiny_split
        # One shared trainer model serves both runs (and evaluate() swaps
        # its parameters), so the start weights are pinned explicitly.
        start = {}

        def run():
            srv = FedAsyncServer(
                tiny_devices,
                test_set,
                FedAsyncConfig(rounds=6, local_epochs=1, seed=3),
                env=make_environment("churn", drop_prob=0.1),
            )
            srv.record_trace = True
            w0 = start.setdefault("w0", srv.global_weights.copy())
            result = srv.fit(initial_weights=w0)
            return srv.scheduler.trace, result

        trace_a, result_a = run()
        trace_b, result_b = run()
        assert trace_a == trace_b
        assert len(trace_a) > 0
        np.testing.assert_array_equal(
            result_a.final_weights, result_b.final_weights
        )


class TestCancellableTimers:
    """The fault subsystem's timer contract: cancel is O(1), idempotent,
    and a no-op on handles held past their dispatch."""

    def test_cancel_skips_event_and_updates_pending(self):
        sched = Scheduler()
        fired = []
        sched.on("timer", lambda ev: fired.append(ev.payload))
        keep = sched.at(1.0, "timer", "keep")
        drop = sched.at(2.0, "timer", "drop")
        sched.cancel(drop)
        assert sched.pending("timer") == 1
        sched.run()
        assert fired == ["keep"]
        assert sched.pending("timer") == 0

    def test_cancel_after_fire_is_noop(self):
        """Holding a timer handle past its dispatch (an ack racing its
        own timeout) must not corrupt the pending counters."""
        sched = Scheduler()
        handle = sched.at(1.0, "timer")
        other = sched.at(2.0, "timer")
        sched.step()  # dispatches `handle`
        assert handle.fired
        sched.cancel(handle)  # late cancel: must not double-decrement
        assert sched.pending("timer") == 1
        sched.cancel(handle)
        assert sched.pending("timer") == 1
        sched.run()
        assert sched.pending("timer") == 0

    def test_cancel_is_idempotent_before_fire(self):
        sched = Scheduler()
        sched.at(0.5, "timer")
        handle = sched.at(1.0, "timer")
        sched.cancel(handle)
        sched.cancel(handle)
        assert sched.pending("timer") == 1

    def test_pending_counter_never_negative(self):
        """Adversarial cancel storms leave every per-kind counter >= 0."""
        sched = Scheduler()
        handles = [sched.at(float(i), "a") for i in range(5)]
        sched.step()
        sched.step()
        for h in handles * 3:  # cancel everything repeatedly, fired or not
            sched.cancel(h)
        assert sched.pending("a") == 0
        assert all(n >= 0 for n in sched._pending.values())
        assert sched.run() == 0  # nothing left to dispatch

    def test_cancelled_events_do_not_leak_queue_entries(self):
        """A cancelled event is skipped on pop: after a run the heap is
        fully drained even when most entries were revoked."""
        sched = Scheduler()
        handles = [sched.at(1.0 + i * 0.1, "timer", i) for i in range(20)]
        for h in handles[1:]:
            sched.cancel(h)
        fired = []
        sched.on("timer", lambda ev: fired.append(ev.payload))
        sched.run()
        assert fired == [0]
        assert len(sched.queue) == 0
        assert not sched

    def test_lagged_cancelled_event_never_fires(self):
        """An event scheduled in the clock's past then cancelled stays
        dead — it must not resurrect as a lagged firing."""
        sched = Scheduler()
        sched.at(5.0, "late")
        sched.step()  # clock now at 5.0
        lagged = sched.at(1.0, "lagged")  # in the past: would fire at now
        sched.cancel(lagged)
        fired = []
        sched.on("lagged", lambda ev: fired.append(ev))
        sched.run()
        assert fired == []

    def test_equal_timestamp_fault_events_order_deterministically(self):
        """Fault kinds landing on one timestamp dispatch in insertion
        order — the tie-break the retry/crash races rely on."""
        from repro.simulation.scheduler import (
            DEVICE_CRASH,
            DEVICE_RESTART,
            HEARTBEAT,
            RETRY_UPLOAD,
            SUSPECT,
            UPLOAD_TIMEOUT,
        )

        kinds = [UPLOAD_TIMEOUT, RETRY_UPLOAD, DEVICE_CRASH,
                 DEVICE_RESTART, HEARTBEAT, SUSPECT]
        for trial in range(3):
            sched = Scheduler()
            seen = []
            for k in kinds:
                sched.on(k, lambda ev, k=k: seen.append(k))
                sched.at(1.0, k)
            sched.run()
            assert seen == kinds

    def test_crash_between_schedule_and_fire_never_double_fires(self):
        """The async crash pattern: a handler cancels a sibling event at
        the same timestamp; the sibling must not run."""
        from repro.simulation.scheduler import DEVICE_CRASH, UNIT_COMPLETE

        sched = Scheduler()
        completions = []
        unit = sched.at(1.0, UNIT_COMPLETE, 7)
        sched.on(DEVICE_CRASH, lambda ev: sched.cancel(unit))
        sched.on(UNIT_COMPLETE, lambda ev: completions.append(ev.payload))
        sched.at(1.0, DEVICE_CRASH, 7)  # same time, later insertion
        # Crash inserted later fires second: completion runs once.
        assert sched.run() == 2
        assert completions == [7]

        # The reverse order: crash inserted first cancels the pending
        # completion before it dispatches.
        sched2 = Scheduler()
        completions2 = []
        holder = {}
        sched2.on(DEVICE_CRASH, lambda ev: sched2.cancel(holder["unit"]))
        sched2.on(UNIT_COMPLETE, lambda ev: completions2.append(ev.payload))
        sched2.at(1.0, DEVICE_CRASH, 7)
        holder["unit"] = sched2.at(1.0, UNIT_COMPLETE, 7)
        sched2.run()
        assert completions2 == []
