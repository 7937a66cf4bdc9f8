"""Tests for repro.env.availability: churn models and their edge cases."""

import numpy as np
import pytest

from repro.env.availability import (
    AlwaysOn,
    BernoulliAvailability,
    CapacityCorrelatedAvailability,
    TraceAvailability,
)


def mask_of(model, round_idx, rng, n=6, times=None):
    """The model's online mask over devices ``0..n-1`` (unit time 1.0
    unless ``times`` says otherwise)."""
    times = np.ones(n) if times is None else np.asarray(times, dtype=float)
    ids = np.arange(len(times), dtype=np.intp)
    return model.available_mask_ids(round_idx, ids, times, rng)


class TestAlwaysOn:
    def test_everyone_online_without_rng(self):
        model = AlwaysOn()
        assert model.always_on
        mask = mask_of(model, 1, rng=None, n=4)  # rng untouched
        assert mask.all() and len(mask) == 4


class TestBernoulli:
    def test_up_prob_validation(self):
        with pytest.raises(ValueError):
            BernoulliAvailability(up_prob=0.0)
        with pytest.raises(ValueError):
            BernoulliAvailability(up_prob=1.5)

    def test_full_up_prob_never_draws(self):
        model = BernoulliAvailability(up_prob=1.0)
        assert mask_of(model, 1, rng=None, n=5).all()

    def test_rate_roughly_matches(self):
        model = BernoulliAvailability(up_prob=0.3)
        rng = np.random.default_rng(0)
        total = sum(
            mask_of(model, r, rng, n=10).sum() for r in range(200)
        )
        assert 0.2 < total / 2000 < 0.4

    def test_reproducible_given_rng(self):
        model = BernoulliAvailability(up_prob=0.5)
        m1 = mask_of(model, 1, np.random.default_rng(3), n=8)
        m2 = mask_of(model, 1, np.random.default_rng(3), n=8)
        assert (m1 == m2).all()


class TestTrace:
    def test_round_indexing_is_one_based_and_cycles(self):
        model = TraceAvailability({0: [True, False]}, default=True)
        assert mask_of(model, 1, None, n=2).tolist() == [True, True]
        assert mask_of(model, 2, None, n=2).tolist() == [False, True]
        assert mask_of(model, 3, None, n=2).tolist() == [True, True]

    def test_default_applies_to_untraced_devices(self):
        model = TraceAvailability({}, default=False)
        assert not mask_of(model, 1, None, n=3).any()

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TraceAvailability({0: []})


class TestCapacityCorrelated:
    def test_slow_devices_flakier(self):
        model = CapacityCorrelatedAvailability(up_prob=0.95, slow_penalty=0.9)
        times = [0.1, 0.1, 0.1, 1.0, 1.0, 1.0]
        rng = np.random.default_rng(0)
        fast_up = slow_up = 0
        for r in range(300):
            mask = mask_of(model, r, rng, times=times)
            fast_up += mask[:3].sum()
            slow_up += mask[3:].sum()
        assert fast_up > slow_up * 2

    def test_homogeneous_fleet_uses_base_prob(self):
        model = CapacityCorrelatedAvailability(up_prob=1.0, slow_penalty=0.5)
        mask = mask_of(model, 1, np.random.default_rng(0), n=5)
        assert mask.all()  # equal times: nobody is "slow", p = up_prob = 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CapacityCorrelatedAvailability(up_prob=1.2)
        with pytest.raises(ValueError):
            CapacityCorrelatedAvailability(slow_penalty=-0.1)


class TestDiurnal:
    def test_sinusoid_values(self):
        from repro.env.availability import DiurnalAvailability

        model = DiurnalAvailability(period=24.0, min_up=0.2, max_up=0.8)
        mid = (0.2 + 0.8) / 2
        assert model.up_prob(0) == pytest.approx(mid)  # sin(0) = 0
        assert model.up_prob(6) == pytest.approx(0.8)  # quarter period: peak
        assert model.up_prob(18) == pytest.approx(0.2)  # three-quarter: trough
        assert model.up_prob(24) == pytest.approx(mid)  # full period wraps

    def test_phase_shifts_the_cycle(self):
        from repro.env.availability import DiurnalAvailability

        base = DiurnalAvailability(period=24.0, phase=0.0)
        shifted = DiurnalAvailability(period=24.0, phase=0.25)
        assert shifted.up_prob(0) == pytest.approx(base.up_prob(6))

    def test_bounds_respected_everywhere(self):
        from repro.env.availability import DiurnalAvailability

        model = DiurnalAvailability(period=7.0, min_up=0.1, max_up=0.9)
        probs = [model.up_prob(t) for t in range(50)]
        assert all(0.1 - 1e-12 <= p <= 0.9 + 1e-12 for p in probs)

    def test_not_always_on(self):
        from repro.env.availability import DiurnalAvailability

        assert DiurnalAvailability().always_on is False

    def test_masks_track_the_cycle(self):
        from repro.env.availability import DiurnalAvailability

        model = DiurnalAvailability(period=24.0, min_up=0.05, max_up=0.95)
        rng = np.random.default_rng(0)
        peak = mask_of(model, 6, rng, n=200).sum()
        trough = mask_of(model, 18, rng, n=200).sum()
        assert peak > trough * 3

    def test_validation(self):
        from repro.env.availability import DiurnalAvailability

        with pytest.raises(ValueError):
            DiurnalAvailability(period=0.0)
        with pytest.raises(ValueError):
            DiurnalAvailability(min_up=0.9, max_up=0.5)
        with pytest.raises(ValueError):
            DiurnalAvailability(max_up=1.5)

    def test_registry_preset_and_kind(self):
        from repro.env.availability import DiurnalAvailability
        from repro.env.registry import AVAILABILITY_KINDS, make_environment

        assert "diurnal" in AVAILABILITY_KINDS
        env = make_environment("diurnal", period=12.0, min_up=0.3)
        assert isinstance(env.availability, DiurnalAvailability)
        assert env.availability.period == 12.0
        assert env.availability.min_up == 0.3

    def test_runs_end_to_end(self):
        from repro.experiments import ExperimentSpec, run_experiment

        result = run_experiment(ExperimentSpec(
            method="fedavg", rounds=3, num_devices=8, num_samples=400,
            env="diurnal", env_kwargs={"period": 4.0}))
        assert len(result.history.accuracies) == 3


class TestTraceVectorizedPath:
    """The streamed array form of TraceAvailability must agree with a
    per-device lookup in the trace dict on every (round, id-set)
    combination."""

    def _model(self):
        return TraceAvailability(
            {0: [True, False], 3: [False], 7: [True, True, False]},
            default=True,
        )

    @staticmethod
    def _lookup(model, round_idx, ids):
        """The definition, one device at a time."""
        return [
            model.traces[i][(round_idx - 1) % len(model.traces[i])]
            if i in model.traces else model.default
            for i in ids
        ]

    def test_matches_per_device_lookup_across_rounds(self):
        model = self._model()
        ids = np.arange(9, dtype=np.intp)
        for r in range(1, 8):
            np.testing.assert_array_equal(
                model.available_mask_ids(r, ids, np.ones(9), rng=None),
                self._lookup(model, r, range(9)),
            )

    def test_subset_and_unsorted_id_arrays(self):
        """Ranked policies (``fastest``) hand over non-ascending ids."""
        model = self._model()
        for ids in ([3, 7], [7, 0, 3], [8, 2], [5, 1, 0, 7, 3], [3]):
            ids_arr = np.asarray(ids, dtype=np.intp)
            for r in (1, 2, 3, 4):
                np.testing.assert_array_equal(
                    model.available_mask_ids(
                        r, ids_arr, np.ones(len(ids)), rng=None
                    ),
                    self._lookup(model, r, ids),
                )

    def test_traced_ids_absent_from_cohort(self):
        """Traced devices outside the id array must not corrupt the mask
        (searchsorted rows are clipped and verified by value)."""
        model = TraceAvailability({50: [False], 99: [False]}, default=True)
        ids = np.array([1, 2, 3], dtype=np.intp)
        mask = model.available_mask_ids(1, ids, np.ones(3), rng=None)
        assert mask.all()

    def test_default_false_with_sparse_traces(self):
        model = TraceAvailability({2: [True]}, default=False)
        mask = model.available_mask_ids(
            1, np.array([0, 2, 4], dtype=np.intp), np.ones(3), rng=None
        )
        np.testing.assert_array_equal(mask, [False, True, False])

    def test_trace_cycling_in_flat_block(self):
        """Traces of different lengths cycle independently through the
        shared flat block's modular gather."""
        model = TraceAvailability({0: [True, False, False], 1: [True, False]})
        ids = np.array([0, 1], dtype=np.intp)
        got = [
            model.available_mask_ids(r, ids, np.ones(2), rng=None).tolist()
            for r in range(1, 7)
        ]
        assert got == [
            [True, True], [False, False], [False, True],
            [True, False], [False, True], [False, False],
        ]
