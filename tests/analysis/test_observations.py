"""Tests for the Section 3.2 observation experiments."""

import numpy as np
import pytest

from repro.analysis.observations import (
    COMMUNICATION_MODES,
    ObservationResult,
    cluster_count_experiment,
    communication_mode_experiment,
    ring_order_experiment,
)
from repro.nn.serialization import get_flat_params


@pytest.fixture()
def w0(tiny_trainer):
    return get_flat_params(tiny_trainer.model)


class TestObservationResult:
    def test_final(self):
        r = ObservationResult("x", [0.1, 0.5])
        assert r.final == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ObservationResult("x").final


class TestCommunicationModes:
    def test_all_modes_run(self, homogeneous_devices, tiny_split, w0):
        _, test_set = tiny_split
        for mode in COMMUNICATION_MODES:
            res = communication_mode_experiment(
                mode, homogeneous_devices, test_set, w0, rounds=2
            )
            assert res.label == mode
            assert len(res.round_accuracies) == 2
            assert 0.0 <= res.final <= 1.0

    def test_unknown_mode_raises(self, homogeneous_devices, tiny_split, w0):
        _, test_set = tiny_split
        with pytest.raises(ValueError):
            communication_mode_experiment(
                "gossip", homogeneous_devices, test_set, w0
            )

    def test_zero_rounds_raises(self, homogeneous_devices, tiny_split, w0):
        _, test_set = tiny_split
        with pytest.raises(ValueError):
            communication_mode_experiment(
                "none", homogeneous_devices, test_set, w0, rounds=0
            )

    def test_communication_helps_on_skewed_data(self, tiny_split, tiny_trainer, w0):
        """Observation 1 in miniature: ring beats isolation on Non-IID."""
        from repro.datasets.partition import dirichlet_partition
        from repro.device import make_fleet

        train_set, test_set = tiny_split
        parts = dirichlet_partition(train_set, 6, beta=0.15, seed=7, min_samples=2)
        devices = make_fleet(train_set, parts, np.ones(6), tiny_trainer)
        none = communication_mode_experiment(
            "none", devices, test_set, w0, rounds=8, seed=0
        )
        ring = communication_mode_experiment(
            "ring", devices, test_set, w0, rounds=8, seed=0
        )
        assert ring.final > none.final

    def test_deterministic(self, homogeneous_devices, tiny_split, w0):
        _, test_set = tiny_split
        a = communication_mode_experiment(
            "random", homogeneous_devices, test_set, w0, rounds=3, seed=5
        )
        b = communication_mode_experiment(
            "random", homogeneous_devices, test_set, w0, rounds=3, seed=5
        )
        assert a.round_accuracies == b.round_accuracies

    def test_eval_every_thins_history(self, homogeneous_devices, tiny_split, w0):
        _, test_set = tiny_split
        res = communication_mode_experiment(
            "ring", homogeneous_devices, test_set, w0, rounds=6, eval_every=3
        )
        assert len(res.round_accuracies) == 2


class TestRingOrderExperiment:
    def test_orders_run(self, tiny_devices, tiny_split, w0):
        _, test_set = tiny_split
        for order in ("random", "small_to_large", "large_to_small"):
            res = ring_order_experiment(
                order, tiny_devices, test_set, w0, rounds=2
            )
            assert res.label == order
            assert len(res.round_accuracies) == 2

    def test_zero_rounds_raises(self, tiny_devices, tiny_split, w0):
        _, test_set = tiny_split
        with pytest.raises(ValueError):
            ring_order_experiment("random", tiny_devices, test_set, w0, rounds=0)

    def test_models_persist_across_rounds(self, tiny_devices, tiny_split, w0):
        """Decentralized continuation: accuracy after 4 rounds is not worse
        than after 1 round by more than noise (learning accumulates)."""
        _, test_set = tiny_split
        res = ring_order_experiment(
            "small_to_large", tiny_devices, test_set, w0, rounds=4
        )
        assert res.round_accuracies[-1] >= res.round_accuracies[0] - 0.1


class TestClusterCountExperiment:
    def test_runs_and_tracks_fastest_class(self, tiny_devices, tiny_split, w0):
        _, test_set = tiny_split
        res = cluster_count_experiment(2, tiny_devices, test_set, w0, rounds=2)
        assert res.label == "K=2"
        assert len(res.round_accuracies) == 2

    def test_k_one_single_ring(self, tiny_devices, tiny_split, w0):
        _, test_set = tiny_split
        res = cluster_count_experiment(1, tiny_devices, test_set, w0, rounds=2)
        assert 0.0 <= res.final <= 1.0

    def test_zero_rounds_raises(self, tiny_devices, tiny_split, w0):
        _, test_set = tiny_split
        with pytest.raises(ValueError):
            cluster_count_experiment(2, tiny_devices, test_set, w0, rounds=0)
