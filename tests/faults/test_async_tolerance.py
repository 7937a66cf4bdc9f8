"""Async fault tolerance: crash/restart, retransmission, failure detection.

Drives real fedasync/fedbuff runs with the fault machinery armed and
checks the event-loop behaviors: cancelled unit timers, upload
retry/backoff accounting, heartbeat-driven suspicion, and the buffered
methods' live flush goal.
"""

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, run_experiment


def _spec(**overrides):
    base = dict(
        method="fedasync",
        rounds=12,
        num_devices=8,
        num_samples=400,
        partition="iid",
        env="ideal",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestCrashRestart:
    def test_crashes_injected_and_survived(self):
        """Crashes cancel in-flight units but the run still completes all
        its aggregations."""
        result = run_experiment(_spec(faults="crash",
                                      fault_kwargs={"crash_prob": 0.4}))
        res = result.resilience
        assert res["injected_crashes"] > 0
        assert res["wasted_time"] > 0.0
        assert result.history.rounds[-1] >= 12

    def test_long_downtime_crashes_are_detected(self):
        """A downtime well past the suspicion timeout guarantees the
        sweep sees the silence: every such crash is detected."""
        res = run_experiment(_spec(faults="crash",
                                   fault_kwargs={"crash_prob": 0.5,
                                                 "downtime": 20.0},
                                   rounds=20)).resilience
        assert res["injected_crashes"] > 0
        assert res["detected_crashes"] > 0
        assert res["detected_crashes"] <= res["injected_crashes"]
        assert res["injected_crashes"] == (
            res["detected_crashes"] + res["undetected_crashes"]
        )


#: Timers an order of magnitude under the unit times, so timeouts mature
#: well inside these short test runs.
_FAST_TIMERS = {"upload_timeout": 0.02, "retry_backoff": 0.005}


class TestRetransmission:
    def test_drops_trigger_timeouts_and_retries(self):
        res = run_experiment(_spec(env="ideal",
                                   env_kwargs={"drop_prob": 0.4},
                                   faults="straggler",
                                   fault_kwargs={"straggle_prob": 0.1},
                                   method_kwargs=dict(_FAST_TIMERS)),
                             ).resilience
        assert res["uploads_sent"] > 0
        assert res["upload_timeouts"] > 0
        assert res["retries"] > 0

    def test_retry_budget_invariant(self):
        """retries <= max_retries * original uploads: the backoff chain
        is bounded per update."""
        spec = _spec(env="ideal", env_kwargs={"drop_prob": 0.6},
                     faults="straggler", fault_kwargs={"straggle_prob": 0.1},
                     max_retries=2, method_kwargs=dict(_FAST_TIMERS))
        res = run_experiment(spec).resilience
        originals = res["uploads_sent"] - res["retries"]
        assert originals > 0
        assert res["retries"] <= 2 * originals
        # Every timeout either retried or dropped the update.
        assert res["upload_timeouts"] == res["retries"] + res["dropped_updates"]

    @pytest.mark.parametrize("method", ["fedasync", "fedbuff"])
    @pytest.mark.parametrize("env", ["churn", "wan"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_retry_ledger_balances_under_crashes_and_drops(
        self, method, env, seed
    ):
        """A retransmission whose device crashed before the backoff
        matured is never sent: it is a drop, not a retry *and* a drop.
        The ledger must balance — also with retries still pending when
        the run stops."""
        res = run_experiment(_spec(method=method, num_devices=12, rounds=40,
                                   env=env, env_kwargs={"drop_prob": 0.3},
                                   faults="compound",
                                   fault_kwargs={"crash_prob": 0.3},
                                   seed=seed)).resilience
        assert res["injected_crashes"] > 0
        assert res["upload_timeouts"] > 0
        assert res["upload_timeouts"] == res["retries"] + res["dropped_updates"]
        assert 0 <= res["retries"] <= res["uploads_sent"]

    def test_zero_retries_drops_immediately(self):
        res = run_experiment(_spec(env="ideal",
                                   env_kwargs={"drop_prob": 0.5},
                                   faults="straggler",
                                   fault_kwargs={"straggle_prob": 0.1},
                                   max_retries=0,
                                   method_kwargs=dict(_FAST_TIMERS))).resilience
        assert res["retries"] == 0
        assert res["dropped_updates"] > 0

    def test_retransmission_beats_drops(self):
        """With drops, the retry path lands strictly more aggregations
        per unit of virtual time than no retries."""
        kwargs = dict(env="ideal", env_kwargs={"drop_prob": 0.5},
                      faults="straggler",
                      fault_kwargs={"straggle_prob": 0.05}, rounds=8,
                      method_kwargs=dict(_FAST_TIMERS))
        no_retry = run_experiment(_spec(max_retries=0, **kwargs))
        retry = run_experiment(_spec(max_retries=4, **kwargs))
        assert retry.history.times[-1] < no_retry.history.times[-1]


class TestFailureDetector:
    def test_suspicions_recorded(self):
        res = run_experiment(_spec(faults="crash",
                                   fault_kwargs={"crash_prob": 0.5,
                                                 "downtime": 20.0},
                                   rounds=20)).resilience
        # Detection implies at least one suspicion fired; false
        # suspicions stay bounded (devices beat every 0.5 units).
        assert res["detected_crashes"] > 0

    def test_fedbuff_live_target_shrinks_goal(self):
        """A fedbuff flush goal above the live cohort would stall forever
        once the detector parks crashed devices; live_target lets the
        run finish."""
        result = run_experiment(_spec(method="fedbuff",
                                      buffer_goal=8,
                                      faults="crash",
                                      fault_kwargs={"crash_prob": 0.3,
                                                    "downtime": 30.0},
                                      rounds=6))
        assert result.history.rounds[-1] >= 6

    def test_live_target_unit(self):
        from repro.experiments import build_experiment

        server = build_experiment(_spec(method="fedbuff"))
        # Outside fit() the machinery is off: the goal passes through.
        assert server.live_target(10) == 10
        server._fault_machinery = True
        server._cohort_ids = np.arange(8)
        server._suspected = np.zeros(8, dtype=bool)
        # Armed but nothing suspected: still the goal, even above the cohort.
        assert server.live_target(10) == 10
        server._suspected[[0, 1, 2]] = True
        assert server.live_target(10) == 5
        assert server.live_target(3) == 3
        server._suspected[:] = True
        assert server.live_target(10) == 1  # never zero
