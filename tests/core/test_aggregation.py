"""Aggregation tests including convex-combination properties."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    AGGREGATORS,
    class_time_weighted_average,
    coordinate_median,
    sample_weighted_average,
    trimmed_mean,
    uniform_average,
    weighted_average,
)


class TestUniformAverage:
    def test_mean(self):
        stack = np.array([[0.0, 2.0], [2.0, 4.0]])
        np.testing.assert_allclose(uniform_average(stack), [1.0, 3.0])

    def test_single_model_identity(self):
        stack = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(uniform_average(stack), stack[0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            uniform_average(np.empty((0, 3)))

    def test_1d_raises(self):
        with pytest.raises(ValueError):
            uniform_average(np.zeros(3))


class TestWeightedAverage:
    def test_normalization(self):
        stack = np.array([[0.0], [10.0]])
        np.testing.assert_allclose(weighted_average(stack, [1, 4]), [8.0])

    def test_zero_weight_excluded(self):
        stack = np.array([[1.0], [99.0]])
        np.testing.assert_allclose(weighted_average(stack, [1.0, 0.0]), [1.0])

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            weighted_average(np.zeros((2, 1)), [-1.0, 2.0])

    def test_all_zero_weights_raise(self):
        with pytest.raises(ValueError):
            weighted_average(np.zeros((2, 1)), [0.0, 0.0])

    def test_weight_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            weighted_average(np.zeros((2, 1)), [1.0])

    @given(
        n=st.integers(min_value=1, max_value=10),
        d=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_convex_combination_bounds(self, n, d, seed):
        """Aggregate lies coordinate-wise within [min, max] of the models."""
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(n, d)) * 10
        weights = rng.uniform(0.01, 1.0, size=n)
        agg = weighted_average(stack, weights)
        assert np.all(agg >= stack.min(axis=0) - 1e-12)
        assert np.all(agg <= stack.max(axis=0) + 1e-12)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @example(seed=6071)  # a coordinate that averages to ~9e-5
    @settings(max_examples=25, deadline=None)
    def test_property_scale_invariance(self, seed):
        """Scaling all weights by a constant changes nothing."""
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(5, 4))
        w = rng.uniform(0.1, 1.0, size=5)
        # Rescaled weights round differently, and a weighted sum carries
        # cancellation error at the scale of its inputs (a few eps times
        # max |stack|), not of its result.  A coordinate whose average
        # nearly cancels therefore needs an absolute tolerance: no
        # relative one bounds an error of 1e-16 on a result of 1e-4.
        atol = 8 * np.finfo(np.float64).eps * np.abs(stack).max()
        np.testing.assert_allclose(
            weighted_average(stack, w), weighted_average(stack, w * 37.0),
            rtol=1e-12, atol=atol,
        )


class TestSampleWeighted:
    def test_eq3_weighting(self):
        stack = np.array([[0.0], [1.0]])
        np.testing.assert_allclose(
            sample_weighted_average(stack, np.array([30, 10])), [0.25]
        )


class TestCoordinateMedian:
    def test_median_per_coordinate(self):
        stack = np.array([[0.0, 5.0], [1.0, 1.0], [100.0, 3.0]])
        np.testing.assert_allclose(coordinate_median(stack), [1.0, 3.0])

    def test_robust_to_one_outlier(self):
        """One arbitrarily corrupted upload cannot drag the median out of
        the honest uploads' coordinate-wise range."""
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(5, 8))
        stack[0] = 1e9
        poisoned = coordinate_median(stack)
        honest = stack[1:]
        assert np.all(poisoned >= honest.min(axis=0))
        assert np.all(poisoned <= honest.max(axis=0))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            coordinate_median(np.empty((0, 3)))


class TestTrimmedMean:
    def test_trims_both_tails(self):
        stack = np.array([[-1e9], [1.0], [2.0], [3.0], [1e9]])
        np.testing.assert_allclose(trimmed_mean(stack, 0.2), [2.0])

    def test_small_stack_degrades_to_mean(self):
        stack = np.array([[0.0], [4.0]])
        np.testing.assert_allclose(trimmed_mean(stack, 0.1), [2.0])

    def test_bad_fraction_raises(self):
        for bad in (-0.1, 0.5, 0.9):
            with pytest.raises(ValueError, match="trim_fraction"):
                trimmed_mean(np.zeros((4, 2)), bad)

    @given(
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_within_model_bounds(self, n, seed):
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(n, 4)) * 5
        for agg in (coordinate_median(stack), trimmed_mean(stack, 0.2)):
            assert np.all(agg >= stack.min(axis=0) - 1e-12)
            assert np.all(agg <= stack.max(axis=0) + 1e-12)


class TestAggregatorField:
    """The sweepable ExperimentSpec.aggregator axis on FedAvg."""

    def test_names_exported(self):
        assert set(AGGREGATORS) == {"sample", "uniform", "median",
                                    "trimmed_mean", "krum", "multi_krum"}

    def test_fedavg_config_validates(self):
        from repro.baselines.fedavg import FedAvgConfig

        with pytest.raises(ValueError, match="aggregator"):
            FedAvgConfig(aggregator="geometric_median")

    def test_spec_validates(self):
        from repro.experiments import ExperimentSpec

        with pytest.raises(ValueError, match="aggregator"):
            ExperimentSpec(aggregator="geometric_median")

    @pytest.mark.parametrize("aggregator", sorted(AGGREGATORS))
    def test_runs_end_to_end(self, aggregator):
        from repro.experiments import ExperimentSpec, run_experiment

        result = run_experiment(ExperimentSpec(
            method="fedavg", dataset="mnist_like", num_samples=200,
            num_devices=4, rounds=2, seed=0, aggregator=aggregator,
        ))
        assert np.isfinite(result.final_weights).all()
        assert result.config["aggregator"] == aggregator

    def test_aggregators_actually_differ(self):
        from repro.experiments import ExperimentSpec, run_experiment

        spec = dict(method="fedavg", dataset="mnist_like", num_samples=200,
                    num_devices=4, rounds=2, seed=0)
        sample = run_experiment(ExperimentSpec(**spec))
        median = run_experiment(ExperimentSpec(**spec, aggregator="median"))
        assert not np.array_equal(sample.final_weights, median.final_weights)


class TestClassTimeWeighted:
    def test_eq10_slow_class_weighs_more(self):
        stack = np.array([[0.0], [1.0]])
        # device 0 in fast class (mean time .1), device 1 slow (mean .9)
        agg = class_time_weighted_average(stack, np.array([0.1, 0.9]))
        np.testing.assert_allclose(agg, [0.9])

    def test_equal_times_is_uniform(self):
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(4, 3))
        np.testing.assert_allclose(
            class_time_weighted_average(stack, np.ones(4)),
            uniform_average(stack),
            rtol=1e-12,
        )


class TestKrum:
    def _stack_with_outliers(self, num_honest=8, num_bad=2, dim=6, seed=0):
        rng = np.random.default_rng(seed)
        honest = 1.0 + 0.01 * rng.standard_normal((num_honest, dim))
        bad = -10.0 + 0.01 * rng.standard_normal((num_bad, dim))
        return np.vstack([honest, bad]), num_honest

    def test_outlier_never_selected(self):
        from repro.core.aggregation import krum, krum_scores

        stack, num_honest = self._stack_with_outliers()
        winner = krum(stack, num_malicious=2)
        # The winner sits in the honest cluster around +1.
        np.testing.assert_allclose(winner, np.ones_like(winner), atol=0.1)
        scores = krum_scores(stack, num_malicious=2)
        assert int(np.argmin(scores)) < num_honest

    def test_outliers_score_worst(self):
        from repro.core.aggregation import krum_scores

        stack, num_honest = self._stack_with_outliers()
        scores = krum_scores(stack, num_malicious=2)
        assert scores[num_honest:].min() > scores[:num_honest].max()

    def test_tie_breaks_to_lowest_index(self):
        from repro.core.aggregation import krum

        stack = np.tile(np.array([[2.0, 3.0]]), (4, 1))
        np.testing.assert_array_equal(krum(stack), stack[0])

    def test_single_model_identity(self):
        from repro.core.aggregation import krum, krum_scores, multi_krum

        stack = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(krum(stack), stack[0])
        np.testing.assert_array_equal(multi_krum(stack), stack[0])
        np.testing.assert_array_equal(krum_scores(stack), [0.0])

    def test_small_stack_clamps_neighbor_count(self):
        """n <= f + 2 would give k <= 0; the clamp keeps k = 1."""
        from repro.core.aggregation import krum

        stack = np.array([[0.0, 0.0], [1.0, 1.0], [100.0, 100.0]])
        winner = krum(stack, num_malicious=5)
        # With one nearest neighbor each, an edge of the close pair wins.
        assert np.allclose(winner, stack[0]) or np.allclose(winner, stack[1])

    def test_multi_krum_m1_equals_krum(self):
        from repro.core.aggregation import krum, multi_krum

        stack, _ = self._stack_with_outliers(seed=3)
        np.testing.assert_array_equal(
            multi_krum(stack, num_malicious=2, m=1), krum(stack, num_malicious=2)
        )

    def test_multi_krum_averages_central_cluster(self):
        from repro.core.aggregation import multi_krum

        stack, num_honest = self._stack_with_outliers(seed=5)
        out = multi_krum(stack, num_malicious=2)  # m = 10 - 2 - 2 = 6
        np.testing.assert_allclose(out, stack[:num_honest].mean(axis=0),
                                   atol=0.05)

    def test_multi_krum_m_clamped_to_stack(self):
        from repro.core.aggregation import multi_krum, uniform_average

        stack = np.array([[0.0, 2.0], [2.0, 4.0]])
        np.testing.assert_allclose(
            multi_krum(stack, m=50), uniform_average(stack)
        )

    def test_negative_f_rejected(self):
        from repro.core.aggregation import krum_scores

        with pytest.raises(ValueError):
            krum_scores(np.ones((3, 2)), num_malicious=-1)

    def test_scores_invariant_to_translation(self):
        """Krum scores depend only on pairwise distances."""
        from repro.core.aggregation import krum_scores

        rng = np.random.default_rng(7)
        stack = rng.standard_normal((6, 4))
        shifted = stack + 42.0
        np.testing.assert_allclose(
            krum_scores(stack, 1), krum_scores(shifted, 1), atol=1e-8
        )

    def test_in_aggregators_tuple(self):
        assert "krum" in AGGREGATORS and "multi_krum" in AGGREGATORS
