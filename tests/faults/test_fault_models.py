"""Unit tests for the fault-model layer (repro.faults)."""

import numpy as np
import pytest

from repro.faults import (
    FAULT_MODELS,
    ByzantineFaults,
    CrashFaults,
    NoFaults,
    RoundEffects,
    StragglerFaults,
    make_fault_model,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestRoundEffects:
    def test_neutral(self):
        eff = RoundEffects.neutral(4)
        np.testing.assert_array_equal(eff.factors, np.ones(4))
        np.testing.assert_array_equal(eff.extra, np.zeros(4))
        assert eff.crashes == 0 and eff.slowdowns == 0 and eff.lost_time == 0.0

    def test_merge_multiplies_factors_adds_extra(self):
        a = RoundEffects(
            factors=np.array([2.0, 1.0]), extra=np.array([1.0, 0.0]),
            crashes=1, slowdowns=0, lost_time=0.5,
        )
        b = RoundEffects(
            factors=np.array([3.0, 1.0]), extra=np.array([0.0, 2.0]),
            crashes=0, slowdowns=2, lost_time=0.25,
        )
        m = a.merge(b)
        np.testing.assert_array_equal(m.factors, [6.0, 1.0])
        np.testing.assert_array_equal(m.extra, [1.0, 2.0])
        assert m.crashes == 1 and m.slowdowns == 2
        assert m.lost_time == pytest.approx(0.75)


class TestNoFaults:
    def test_is_null_and_neutral_hooks(self):
        model = NoFaults()
        assert model.is_null
        eff = model.round_effects(np.arange(3), 1.0, rng())
        np.testing.assert_array_equal(eff.factors, np.ones(3))
        assert model.unit_slowdown(0, rng()) == 1.0
        assert model.unit_crash(0, rng()) is None
        assert not model.is_byzantine(0)


class TestCrashFaults:
    def test_round_effects_shape_and_counters(self):
        model = CrashFaults(crash_prob=1.0, downtime=2.0)
        eff = model.round_effects(np.arange(5), 1.0, rng())
        assert eff.crashes == 5
        assert np.all(eff.factors > 1.0)  # redo time stretches completion
        assert np.all(eff.extra > 0.0)  # downtime delays it further
        assert eff.lost_time > 0.0

    def test_zero_prob_is_neutral(self):
        eff = CrashFaults(crash_prob=0.0).round_effects(np.arange(5), 1.0, rng())
        np.testing.assert_array_equal(eff.factors, np.ones(5))
        np.testing.assert_array_equal(eff.extra, np.zeros(5))
        assert eff.crashes == 0

    def test_unit_crash_point_strictly_inside_unit(self):
        model = CrashFaults(crash_prob=1.0, downtime=1.0)
        for _ in range(50):
            frac, downtime = model.unit_crash(0, rng())
            assert 0.0 < frac < 1.0
            assert downtime > 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CrashFaults(crash_prob=1.5)
        with pytest.raises(ValueError):
            CrashFaults(downtime=-1.0)


class TestStragglerFaults:
    def test_slowdowns_bounded(self):
        model = StragglerFaults(straggle_prob=1.0, max_slowdown=5.0)
        slows = [model.unit_slowdown(0, rng(i)) for i in range(100)]
        assert all(1.0 < s <= 5.0 for s in slows)

    def test_round_effects_only_stretch(self):
        model = StragglerFaults(straggle_prob=1.0, max_slowdown=10.0)
        eff = model.round_effects(np.arange(6), 2.0, rng())
        assert eff.slowdowns == 6
        assert np.all(eff.factors > 1.0)
        np.testing.assert_array_equal(eff.extra, np.zeros(6))

    def test_zero_prob_never_slows(self):
        model = StragglerFaults(straggle_prob=0.0)
        assert model.unit_slowdown(0, rng()) == 1.0


class TestByzantineFaults:
    def test_membership_is_fixed_fraction(self):
        model = ByzantineFaults(fraction=0.25)
        model.attach(20, rng())
        members = [i for i in range(20) if model.is_byzantine(i)]
        assert len(members) == 5

    def test_sign_flip_corruption(self):
        model = ByzantineFaults(fraction=0.5, attack="sign_flip", scale=10.0)
        model.attach(2, rng())
        update = np.array([1.0, -2.0])
        bad_dev = 0 if model.is_byzantine(0) else 1
        out = model.corrupt(update, bad_dev, rng())
        np.testing.assert_allclose(out, -10.0 * update)

    def test_gaussian_and_scaled_attacks(self):
        update = np.zeros(8)
        g = ByzantineFaults(fraction=1.0, attack="gaussian", sigma=1.0)
        g.attach(1, rng())
        assert np.any(g.corrupt(update, 0, rng()) != 0.0)
        s = ByzantineFaults(fraction=1.0, attack="scaled", scale=3.0)
        s.attach(1, rng())
        np.testing.assert_allclose(s.corrupt(np.ones(4), 0, rng()), 3.0)

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError):
            ByzantineFaults(attack="mimic")


class TestCompoundFaults:
    def test_merges_children(self):
        model = make_fault_model(
            "compound", crash_prob=1.0, straggle_prob=1.0, fraction=0.5
        )
        model.attach(4, rng())
        eff = model.round_effects(np.arange(4), 1.0, rng())
        assert eff.crashes == 4 and eff.slowdowns == 4
        assert sum(model.is_byzantine(i) for i in range(4)) == 2

    def test_null_rates_are_neutral(self):
        model = make_fault_model(
            "compound", crash_prob=0.0, straggle_prob=0.0, fraction=0.0
        )
        model.attach(4, rng())
        eff = model.round_effects(np.arange(4), 1.0, rng())
        np.testing.assert_array_equal(eff.factors, np.ones(4))
        assert model.unit_crash(0, rng()) is None
        assert model.unit_slowdown(0, rng()) == 1.0
        assert not any(model.is_byzantine(i) for i in range(4))


class TestRegistry:
    def test_known_models(self):
        names = FAULT_MODELS.names()
        for expected in ("none", "crash", "straggler", "byzantine", "compound"):
            assert expected in names

    def test_make_with_overrides(self):
        model = make_fault_model("byzantine", fraction=0.4, attack="scaled")
        assert isinstance(model, ByzantineFaults)
        assert model.fraction == 0.4

    def test_unknown_name_and_bad_kwargs(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            make_fault_model("meteor_strike")
        with pytest.raises(ValueError, match="bad fault_kwargs for fault model 'crash'"):
            make_fault_model("crash", no_such_knob=1)

    def test_none_is_null(self):
        assert make_fault_model("none").is_null
        assert not make_fault_model("crash").is_null
