"""Synchronous-round fault tolerance: deadlines, over-selection, accounting.

Exercises the :meth:`FederatedServer.charge_round` path through real
FedAvg/FedProx runs — the barrier methods' entire fault surface.
"""

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, run_experiment


def _spec(**overrides):
    base = dict(
        method="fedavg",
        rounds=4,
        num_devices=10,
        num_samples=500,
        partition="iid",
        env="ideal",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestDeadline:
    def test_straggler_rounds_charged_at_most_deadline(self):
        """With stragglers and a deadline, a round never bills beyond it."""
        plain = run_experiment(_spec(faults="straggler",
                                     fault_kwargs={"straggle_prob": 0.9}))
        capped = run_experiment(_spec(faults="straggler",
                                      fault_kwargs={"straggle_prob": 0.9},
                                      round_deadline=2.0))
        assert capped.history.times[-1] <= 2.0 * 4 + 1e-9
        assert capped.history.times[-1] < plain.history.times[-1]

    def test_deadline_hits_counted(self):
        res = run_experiment(_spec(faults="straggler",
                                   fault_kwargs={"straggle_prob": 0.9,
                                                 "max_slowdown": 50.0},
                                   round_deadline=2.0)).resilience
        assert res["deadline_hits"] > 0
        assert res["dropped_updates"] > 0
        assert res["wasted_time"] > 0.0

    def test_deadline_without_faults_is_inert_on_ideal(self):
        """Ideal rounds finish exactly at `duration`; a generous deadline
        never triggers, but arming it must still produce resilience
        accounting (the armed path ran)."""
        clean = run_experiment(_spec())
        armed = run_experiment(_spec(round_deadline=1e9))
        assert clean.history.accuracies == armed.history.accuracies
        np.testing.assert_array_equal(clean.final_weights, armed.final_weights)
        assert armed.resilience["deadline_hits"] == 0
        assert clean.resilience == {}

    def test_all_late_round_waits_for_the_earliest(self):
        """Every upload misses a 0.5 deadline: each round aggregates its
        earliest finisher and bills that completion, not the deadline.
        The ledger is pinned to what the object-list round produced."""
        result = run_experiment(_spec(faults="crash",
                                      fault_kwargs={"crash_prob": 0.3},
                                      round_deadline=0.5))
        assert list(result.history.times) == [1.0, 2.0, 3.0, 4.0]
        res = result.resilience
        assert (res["deadline_hits"], res["dropped_updates"]) == (4, 40)
        assert res["wasted_time"] == 63.215932439172065

    def test_fedprox_shares_the_path(self):
        res = run_experiment(_spec(method="fedprox",
                                   faults="straggler",
                                   fault_kwargs={"straggle_prob": 0.9,
                                                 "max_slowdown": 50.0},
                                   round_deadline=2.0)).resilience
        assert res["deadline_hits"] > 0


class TestOverSelection:
    def test_margin_grows_participants(self):
        lean = run_experiment(_spec(participation=0.5, seed=3))
        fat = run_experiment(_spec(participation=0.5, over_select=0.8, seed=3))
        # Over-selection samples Bernoulli(min(1, p*(1+margin))): strictly
        # more expected participants, visible as more transfers.
        assert fat.history.server_transfers[-1] > lean.history.server_transfers[-1]

    def test_margin_capped_at_full_participation(self):
        full = run_experiment(_spec(participation=1.0))
        over = run_experiment(_spec(participation=1.0, over_select=0.5))
        assert full.history.accuracies == over.history.accuracies
        np.testing.assert_array_equal(full.final_weights, over.final_weights)

    def test_margin_rejected_with_a_selection_policy(self):
        """Only the default draw reads the margin; under a policy it was a
        silent no-op (36-41 of 200 selected instead of 78-84)."""
        with pytest.raises(ValueError, match="over_select=1.0 has no effect"):
            _spec(participation=0.2, over_select=1.0, selection="bernoulli")
        _spec(over_select=0.0, selection="fastest")  # no margin, no claim


class TestResilienceAccounting:
    def test_crash_counts_exact(self):
        """injected == detected + undetected, and the snapshot is
        internally consistent."""
        res = run_experiment(_spec(faults="crash",
                                   fault_kwargs={"crash_prob": 0.5})).resilience
        assert res["injected_crashes"] > 0
        assert res["injected_crashes"] == (
            res["detected_crashes"] + res["undetected_crashes"]
        )
        assert res["injected_total"] == (
            res["injected_crashes"]
            + res["injected_slowdowns"]
            + res["injected_corruptions"]
        )

    def test_byzantine_corruptions_counted(self):
        res = run_experiment(_spec(faults="byzantine",
                                   fault_kwargs={"fraction": 0.3})).resilience
        # 3 byzantine devices x 4 rounds, all arrived under ideal network.
        assert res["injected_corruptions"] == 12

    def test_corruption_does_not_poison_device_state(self):
        """Byzantine devices lie on the wire but train honestly: the round
        stack passed into charge_round stays untouched (it aliases the
        fleet's live weight rows in recycled-arena mode)."""
        from repro.experiments import build_experiment

        spec = _spec(faults="byzantine",
                     fault_kwargs={"fraction": 0.3, "scale": 1000.0})
        server = build_experiment(spec)
        ids = server.fleet.device_ids
        stack = np.arange(spec.num_devices * 4, dtype=np.float64).reshape(
            spec.num_devices, 4
        )
        before = stack.copy()
        arrived = np.arange(spec.num_devices)
        out_arrived, out_stack = server.charge_round(
            1, ids, 1.0, stack, arrived
        )
        np.testing.assert_array_equal(stack, before)  # input untouched
        assert out_stack is not stack  # corruption landed on a copy
        assert np.any(out_stack != before)
        assert server.resilience.injected_corruptions == 3

    def test_round_trip_through_result_dict(self):
        result = run_experiment(_spec(faults="crash",
                                      fault_kwargs={"crash_prob": 0.5}))
        from repro.simulation.results import RunResult

        clone = RunResult.from_dict(result.to_dict())
        assert clone.resilience == result.resilience
        assert "faults_injected" in result.summary()
