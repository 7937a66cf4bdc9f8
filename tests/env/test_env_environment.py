"""Tests for the Environment combiner and the preset registry."""

import math

import numpy as np
import pytest

from repro.env import (
    ENVIRONMENTS,
    AlwaysOn,
    BernoulliAvailability,
    Environment,
    NetworkModel,
    make_environment,
)


class TestEnvironment:
    def test_ideal_is_ideal(self):
        env = Environment.ideal()
        assert env.name == "ideal"
        assert env.network.is_instant and env.network.drop_prob == 0.0
        assert env.availability.always_on
        assert env.server_transfer_time_ids(np.arange(2)) == 0.0

    def test_default_parts_are_ideal(self):
        env = Environment()
        assert env.network.is_instant and env.network.drop_prob == 0.0
        assert env.availability.always_on

    def test_server_transfer_time_is_slowest_link(self):
        env = Environment(NetworkModel(latency=0.1, bandwidth=2.0))
        ids = np.arange(2)
        assert env.server_transfer_time_ids(ids) == pytest.approx(0.6)
        assert env.server_transfer_time_ids(ids, model_units=2.0) == pytest.approx(1.1)
        assert env.server_transfer_time_ids(ids[:0]) == 0.0

    def test_available_never_empty(self):
        """An all-offline round falls back to one rng-chosen participant."""

        class _Nobody(BernoulliAvailability):
            def available_mask_ids(self, round_idx, device_ids, unit_times, rng):
                return np.zeros(len(device_ids), dtype=bool)

        env = Environment(availability=_Nobody(0.5))
        ids = np.arange(5)
        online = env.available_ids(1, ids, np.ones(5), np.random.default_rng(0))
        assert len(online) == 1 and online[0] in ids

    def test_always_on_returns_ids_unchanged(self):
        env = Environment.ideal()
        ids = np.arange(3)
        np.testing.assert_array_equal(
            env.available_ids(1, ids, np.ones(3), rng=None), ids
        )

    def test_type_validation(self):
        with pytest.raises(ValueError, match="NetworkModel"):
            Environment(network="wan")
        with pytest.raises(ValueError, match="AvailabilityModel"):
            Environment(availability="always")


class TestRegistry:
    def test_required_presets_exist(self):
        names = ENVIRONMENTS.names()
        for required in ("ideal", "lan", "wan", "flaky_mobile"):
            assert required in names
        assert len(names) >= 4

    def test_ideal_preset_is_bit_identity_safe(self):
        env = make_environment("ideal")
        assert isinstance(env.availability, AlwaysOn)
        assert env.network.is_instant and env.network.drop_prob == 0.0

    def test_presets_construct_and_describe(self):
        for entry in ENVIRONMENTS.entries():
            env = make_environment(entry.name)
            assert env.name == entry.name
            assert entry.description
            assert env.describe()

    def test_overrides_apply(self):
        env = make_environment("lan", drop_prob=0.25, availability="bernoulli",
                               up_prob=0.5)
        assert env.network.drop_prob == 0.25
        assert isinstance(env.availability, BernoulliAvailability)
        assert env.availability.up_prob == 0.5

    def test_unknown_name_and_kwargs_raise(self):
        with pytest.raises(ValueError, match="unknown environment"):
            make_environment("the_moon")
        with pytest.raises(ValueError, match="env_kwargs"):
            make_environment("wan", warp_speed=9)
        with pytest.raises(ValueError):
            make_environment("ideal", availability="sometimes")

    def test_ideal_network(self):
        net = make_environment("ideal").network
        assert net.transfer_time(0, 1, 7.0) == 0.0
        assert math.isinf(net.bandwidth(0, 1))

    def test_spreads_reach_the_network(self):
        net = make_environment("flaky_mobile").network
        assert (net.latency_spread, net.bandwidth_spread) == (1.0, 0.5)
        hops = {net.transfer_time(0, d) for d in range(1, 6)}
        assert len(hops) > 1
