"""Tests for repro.datasets.core."""

import numpy as np
import pytest

from repro.datasets.core import ClassificationDataset, train_test_split


def small_ds(n=30, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return ClassificationDataset(
        rng.normal(size=(n, 4)), np.arange(n) % classes, classes, name="s"
    )


class TestClassificationDataset:
    def test_len_and_shapes(self):
        ds = small_ds()
        assert len(ds) == 30
        assert ds.feature_shape == (4,)
        assert ds.flat_features == 4

    def test_image_flat_features(self):
        ds = ClassificationDataset(np.zeros((5, 2, 3, 3)), np.zeros(5, dtype=int), 2)
        assert ds.flat_features == 18

    def test_mismatched_n_raises(self):
        with pytest.raises(ValueError):
            ClassificationDataset(np.zeros((5, 2)), np.zeros(4, dtype=int), 2)

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValueError):
            ClassificationDataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)

    def test_negative_label_raises(self):
        with pytest.raises(ValueError):
            ClassificationDataset(np.zeros((2, 2)), np.array([0, -1]), 2)

    def test_2d_labels_raise(self):
        with pytest.raises(ValueError):
            ClassificationDataset(np.zeros((2, 2)), np.zeros((2, 1), dtype=int), 2)

    def test_subset_selects(self):
        ds = small_ds()
        sub = ds.subset(np.array([0, 2, 4]))
        assert len(sub) == 3
        np.testing.assert_array_equal(sub.y, ds.y[[0, 2, 4]])

    def test_class_counts(self):
        ds = small_ds(n=30, classes=3)
        np.testing.assert_array_equal(ds.class_counts(), [10, 10, 10])


class TestTrainTestSplit:
    def test_sizes(self):
        tr, te = train_test_split(small_ds(n=100), 0.2, seed=0)
        assert len(tr) + len(te) == 100
        assert abs(len(te) - 20) <= 3

    def test_disjoint_union(self):
        ds = small_ds(n=60)
        ds.x[:, 0] = np.arange(60)  # make rows identifiable
        tr, te = train_test_split(ds, 0.25, seed=1)
        ids = np.concatenate([tr.x[:, 0], te.x[:, 0]])
        assert sorted(ids) == list(range(60))

    def test_stratified_preserves_proportions(self):
        ds = small_ds(n=300, classes=3)
        _, te = train_test_split(ds, 0.2, seed=2, stratified=True)
        counts = te.class_counts()
        assert counts.max() - counts.min() <= 2

    def test_unstratified_works(self):
        tr, te = train_test_split(small_ds(n=50), 0.3, seed=3, stratified=False)
        assert len(tr) + len(te) == 50

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
    def test_bad_fraction_raises(self, bad):
        with pytest.raises(ValueError):
            train_test_split(small_ds(), bad)
