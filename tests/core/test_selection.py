"""Tests for device-selection policies."""

import numpy as np
import pytest

from repro.core.registry import METHODS
from repro.core.selection import (
    BernoulliSelection,
    DataSizeSelection,
    FastestSelection,
    make_policy,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


class TestBernoulliSelection:
    def test_full_participation_all(self, tiny_devices, rng):
        chosen = BernoulliSelection(1.0).select(1, tiny_devices, rng)
        np.testing.assert_array_equal(chosen, np.arange(len(tiny_devices)))

    def test_partial_never_empty(self, tiny_devices, rng):
        policy = BernoulliSelection(0.05)
        for r in range(20):
            assert len(policy.select(r, tiny_devices, rng)) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliSelection(0.0)


class TestFastestSelection:
    def test_takes_fastest(self, tiny_devices, rng):
        times = tiny_devices.unit_times
        chosen = FastestSelection(0.25).select(1, tiny_devices, rng)
        excluded = np.setdiff1d(tiny_devices.device_ids, chosen)
        assert (times[excluded] >= times[chosen].max()).all()

    def test_ranked_by_time_then_id(self, tiny_devices, rng):
        """The ranked order is the participant order (not ascending ids)."""
        times = tiny_devices.unit_times
        chosen = FastestSelection(0.75).select(1, tiny_devices, rng)
        assert chosen.dtype == np.intp
        assert chosen.tolist() == sorted(
            range(len(tiny_devices)), key=lambda i: (times[i], i)
        )[:6]
        assert chosen.tolist() != sorted(chosen.tolist())

    def test_deterministic(self, tiny_devices, rng):
        a = FastestSelection(0.5).select(1, tiny_devices, rng)
        b = FastestSelection(0.5).select(2, tiny_devices, rng)
        np.testing.assert_array_equal(a, b)

    def test_slow_devices_never_selected(self, tiny_devices, rng):
        """The paper's critique of FedCS-style selection: slow devices'
        data is simply never used."""
        policy = FastestSelection(0.25)
        slowest = int(np.argmax(tiny_devices.unit_times))
        for r in range(10):
            assert slowest not in policy.select(r, tiny_devices, rng)


class TestDataSizeSelection:
    def test_count(self, tiny_devices, rng):
        chosen = DataSizeSelection(0.5).select(1, tiny_devices, rng)
        assert len(chosen) == round(0.5 * len(tiny_devices))

    def test_no_duplicates(self, tiny_devices, rng):
        chosen = DataSizeSelection(0.75).select(1, tiny_devices, rng)
        assert (np.diff(chosen) > 0).all()  # distinct, and ascending

    def test_biased_toward_large_shards(self, tiny_devices):
        counts = np.zeros(len(tiny_devices), dtype=int)
        policy = DataSizeSelection(0.25)
        rng = np.random.default_rng(1)
        for r in range(300):
            counts[policy.select(r, tiny_devices, rng)] += 1
        sizes = tiny_devices.num_samples
        assert counts[np.argmax(sizes)] > counts[np.argmin(sizes)]


class TestMakePolicy:
    @pytest.mark.parametrize("name,cls", [
        ("bernoulli", BernoulliSelection),
        ("fastest", FastestSelection),
        ("datasize", DataSizeSelection),
    ])
    def test_factory(self, name, cls):
        assert isinstance(make_policy(name, 0.5), cls)

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown selection policy 'oracle'; known: "):
            make_policy("oracle", 0.5)

    def test_lookup_is_exact_match_like_the_spec(self):
        # ExperimentSpec(selection="FASTEST") is rejected, so the factory
        # must not lower-case its way around that.
        with pytest.raises(ValueError, match="unknown selection policy"):
            make_policy("FASTEST", 0.5)


class TestServerIntegration:
    def test_policy_plugs_into_server(self, tiny_devices, tiny_split):
        from repro.core.server import ServerConfig
        from tests.core.test_server import EchoServer

        _, test_set = tiny_split
        srv = EchoServer(tiny_devices, test_set, ServerConfig(rounds=2))
        srv.selection_policy = FastestSelection(0.25)
        ids = srv.select_participants(1)
        assert ids.dtype == np.intp
        assert len(ids) == 2  # 25% of 8
        times = tiny_devices.unit_times
        rest = np.setdiff1d(tiny_devices.device_ids, ids)
        assert times[ids].max() <= times[rest].min()
        # The ranked order is the participant order run_round receives.
        assert ids.tolist() == sorted(ids.tolist(), key=lambda i: (times[i], i))

    def test_fastest_selection_loses_data(self, tiny_devices, tiny_split):
        """End-to-end version of the paper's critique: training only on the
        fastest quartile underperforms full participation."""
        from repro.core.fedhisyn import FedHiSynConfig, FedHiSynServer

        _, test_set = tiny_split
        full = FedHiSynServer(
            tiny_devices, test_set,
            FedHiSynConfig(rounds=5, num_classes=3, local_epochs=1),
        ).fit()

        restricted_srv = FedHiSynServer(
            tiny_devices, test_set,
            FedHiSynConfig(rounds=5, num_classes=3, local_epochs=1),
        )
        restricted_srv.selection_policy = FastestSelection(0.25)
        restricted = restricted_srv.fit()
        assert full.final_accuracy >= restricted.final_accuracy - 0.05


def _assert_id_only(fleet):
    """The fleet hands out no per-device object: rows are read by id."""
    with pytest.raises(TypeError):
        fleet[0]
    with pytest.raises(TypeError):
        iter(fleet)


class TestRoundPathBuildsNoFacades:
    """Rounds speak id arrays: every method, selection policy and lossy
    channel runs on a fleet that has no per-device object to build."""

    @pytest.mark.parametrize("env", ["ideal", "flaky_mobile"])
    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_every_method(self, method, env):
        from repro.experiments import ExperimentSpec, build_experiment

        srv = build_experiment(ExperimentSpec(
            method=method, num_samples=400, num_devices=8, rounds=2,
            participation=0.5, env=env,
        ))
        result = srv.fit()
        _assert_id_only(srv.fleet)
        assert np.isfinite(result.final_weights).all()
        assert srv.fleet.materialized_rows <= srv.fleet.num_devices

    @pytest.mark.parametrize("selection", [None, "bernoulli", "fastest", "datasize"])
    def test_city_fleet_under_a_policy(self, selection):
        """A policy picks ids from a 5k-device fleet; only the last
        round's participants hold a weight row afterwards."""
        from repro.experiments import ExperimentSpec, build_experiment

        srv = build_experiment(ExperimentSpec(
            method="fedavg", fleet_profile="city", rounds=3, env="lan",
            selection=selection,
        ))
        result = srv.fit()
        _assert_id_only(srv.fleet)
        assert np.isfinite(result.final_weights).all()
        assert 0 < srv.fleet.materialized_rows < srv.fleet.num_devices


class TestSelectionAtFleetScale:
    @pytest.mark.parametrize("method", ["fedavg", "fedbuff"])
    def test_bernoulli_policy_is_the_default_draw(self, method):
        """``selection="bernoulli"`` at ``selection_fraction=participation``
        is bitwise ``selection=None``: one draw function serves both."""
        from repro.experiments import ExperimentSpec, run_experiment

        base = dict(method=method, num_samples=400, num_devices=12, rounds=4,
                    participation=0.5, env="churn", seed=2)
        default = run_experiment(ExperimentSpec(**base))
        policy = run_experiment(ExperimentSpec(**base, selection="bernoulli"))
        np.testing.assert_array_equal(default.final_weights, policy.final_weights)
        assert default.history.to_dict() == policy.history.to_dict()
