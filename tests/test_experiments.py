"""Tests for the high-level experiment assembly."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    FLEET_PROFILES,
    METHODS,
    MODEL_PRESETS,
    ExperimentSpec,
    build_experiment,
    build_model,
    run_experiment,
)
from repro.datasets.synthetic import cifar10_like, cifar100_like, emnist_like, mnist_like
from repro.nn.models import paper_mlp
from repro.nn.serialization import get_flat_params

GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"
NAN = float("nan")


def fast_spec(**kwargs):
    base = dict(
        method="fedhisyn",
        dataset="mnist_like",
        num_samples=400,
        num_devices=6,
        rounds=2,
        local_epochs=1,
        method_kwargs={"num_classes": 2},
    )
    base.update(kwargs)
    return ExperimentSpec(**base)


class TestBuildModel:
    def test_mlp_on_flat(self):
        ds = mnist_like(num_samples=100, seed=0)
        m = build_model(ds, "mlp", "small", seed=0)
        out = m.forward(ds.x[:4], train=False)
        assert out.shape == (4, 10)

    def test_mlp_on_images_gets_flatten(self):
        ds = cifar10_like(num_samples=100, seed=0)
        m = build_model(ds, "mlp", "small", seed=0)
        kinds = [type(layer).__name__ for layer in m.layers]
        assert kinds == ["Flatten", "Dense", "ReLU", "Dense", "ReLU", "Dense"]
        out = m.forward(ds.x[:4], train=False)
        assert out.shape == (4, 10)

    def test_flatten_front_keeps_the_mlp_init(self):
        # Same init and parameter layout as the bare MLP from the same seed.
        ds = cifar10_like(num_samples=100, seed=0)
        m = build_model(ds, "mlp", "small", seed=3)
        bare = paper_mlp(ds.flat_features, ds.num_classes, seed=3,
                         hidden=MODEL_PRESETS["small"]["mlp_hidden"])
        np.testing.assert_array_equal(get_flat_params(m), get_flat_params(bare))

    @pytest.mark.parametrize("preset", sorted(MODEL_PRESETS))
    @pytest.mark.parametrize("make", [cifar10_like, cifar100_like])
    def test_every_image_mlp_is_flatten_first(self, make, preset):
        ds = make(num_samples=200, seed=1)
        m = build_model(ds, "mlp", preset, seed=2)
        assert [type(layer).__name__ for layer in m.layers] == [
            "Flatten", "Dense", "ReLU", "Dense", "ReLU", "Dense"
        ]
        bare = paper_mlp(ds.flat_features, ds.num_classes, seed=2,
                         hidden=MODEL_PRESETS[preset]["mlp_hidden"])
        np.testing.assert_array_equal(get_flat_params(m), get_flat_params(bare))
        np.testing.assert_array_equal(
            m.forward(ds.x[:3], train=False),
            bare.forward(ds.x[:3].reshape(3, -1), train=False),
        )

    @pytest.mark.parametrize("make", [mnist_like, emnist_like])
    def test_flat_mlp_has_no_flatten(self, make):
        ds = make(num_samples=60, seed=0)
        m = build_model(ds, "mlp", "small", seed=0)
        assert [type(layer).__name__ for layer in m.layers] == [
            "Dense", "ReLU", "Dense", "ReLU", "Dense"
        ]

    def test_flatten_front_owns_its_buffers(self):
        # The Flatten-first model's parameters view its own theta, so flat
        # writes reach its forward pass.
        ds = cifar10_like(num_samples=20, seed=0)
        m = build_model(ds, "mlp", "small", seed=0)
        for p in m.parameters():
            assert np.shares_memory(p.data, m.theta)
        m.set_flat(np.zeros(m.dim))
        np.testing.assert_array_equal(m.forward(ds.x[:2], train=False), 0.0)

    def test_cnn_on_images(self):
        ds = cifar10_like(num_samples=100, seed=0)
        m = build_model(ds, "cnn", "small", seed=0)
        out = m.forward(ds.x[:4], train=False)
        assert out.shape == (4, 10)

    def test_cnn_on_flat_raises(self):
        ds = mnist_like(num_samples=100, seed=0)
        with pytest.raises(ValueError):
            build_model(ds, "cnn", "small", seed=0)

    def test_paper_preset_sizes(self):
        ds = mnist_like(num_samples=100, seed=0)
        m = build_model(ds, "mlp", "paper", seed=0)
        assert m.layers[0].out_features == 200

    def test_unknown_family_raises(self):
        ds = mnist_like(num_samples=100, seed=0)
        with pytest.raises(ValueError):
            build_model(ds, "transformer")


class TestBuildExperiment:
    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            build_experiment(fast_spec(method="fancyfl"))

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_every_method_builds(self, method):
        spec = fast_spec(method=method, method_kwargs={})
        srv = build_experiment(spec)
        assert srv.method == method

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_ignored_fault_model_warns(self, method, recwarn):
        """An armed fault model on a method whose round path never injects
        it warns, naming the method; the fault-aware methods stay quiet."""
        spec = fast_spec(method=method, method_kwargs={}, faults="crash")
        if method in {"fedavg", "fedprox", "tfedavg", "fedasync", "fedbuff"}:
            build_experiment(spec)
            assert not [w for w in recwarn if "ignores the fault model" in str(w.message)]
        else:
            with pytest.warns(UserWarning, match=f"'{method}' ignores the fault model 'crash'"):
                build_experiment(spec)

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_ignored_round_deadline_warns(self, method, recwarn):
        """A round deadline on a method whose round path never cuts a
        round warns, naming the method; the FedAvg family applies it and
        stays quiet."""
        spec = fast_spec(method=method, method_kwargs={}, round_deadline=0.5)
        if method in {"fedavg", "fedprox", "tfedavg"}:
            build_experiment(spec)
            assert not [w for w in recwarn if "round_deadline" in str(w.message)]
        else:
            with pytest.warns(UserWarning, match=f"'{method}' ignores round_deadline=0.5"):
                build_experiment(spec)

    def test_device_count(self):
        srv = build_experiment(fast_spec(num_devices=9))
        assert srv.fleet.num_devices == 9

    def test_iid_partition(self):
        srv = build_experiment(fast_spec(partition="iid"))
        sizes = srv.fleet.num_samples
        assert sizes.max() - sizes.min() <= 1

    def test_het_ratio_mode(self):
        srv = build_experiment(fast_spec(het_ratio=4.0))
        times = srv.fleet.unit_times
        np.testing.assert_allclose(times.max() / times.min(), 4.0)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"partition": "banana"},
            {"participation": 0.0},
            {"participation": 1.5},
            {"rounds": 0},
            {"num_devices": -1},
            {"units_low": 3, "units_high": 2},
            {"het_ratio": 0.5},
            {"model_preset": "huge"},
            {"model_family": "transformer"},
            {"selection": "psychic"},
            {"selection_fraction": 2.0},
            {"method_kwargs": "not-a-dict"},
        ],
    )
    def test_bad_field_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            fast_spec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"dataset": "x"}, "unknown dataset 'x'; known: "),
            ({"method": "nope", "method_kwargs": {}}, "unknown method 'nope'; known: "),
            (
                {"method": "fedavg", "method_kwargs": {"bogus": 1}},
                r"bad method_kwargs for method 'fedavg': unknown field\(s\) \['bogus'\]",
            ),
            ({"selection": "FASTEST"}, "unknown selection policy 'FASTEST'; known: "),
            ({"env": "the_moon"}, "unknown environment 'the_moon'; known: "),
            ({"codec": "gzip"}, "unknown codec 'gzip'; known: "),
            ({"faults": "meteor"}, "unknown fault model 'meteor'; known: "),
            ({"transport": "pigeon"}, "unknown transport 'pigeon'; known: "),
            ({"codec_kwargs": {"bogus": 1}}, "bad codec_kwargs for codec 'none'"),
        ],
    )
    def test_every_named_axis_fails_at_spec_time(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            fast_spec(**kwargs)

    @pytest.mark.parametrize(
        "field", ["method_kwargs", "env_kwargs", "codec_kwargs", "fault_kwargs",
                  "transport_kwargs"],
    )
    def test_axis_kwargs_must_be_dicts(self, field):
        with pytest.raises(ValueError, match=f"{field} must be a dict, got list"):
            fast_spec(**{field: []})

    def test_method_kwargs_values_are_checked_where_the_config_is_built(self):
        spec = fast_spec(method_kwargs={"num_classes": -3})  # key known: valid spec
        with pytest.raises(ValueError):
            build_experiment(spec)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"method": "fedavg", "method_kwargs": {}, "over_select": NAN},
             "over_select"),
            ({"het_ratio": NAN}, "het_ratio"),
            ({"env": "wan", "env_kwargs": {"latency": NAN}}, "latency"),
            ({"env": "wan", "env_kwargs": {"latency_spread": NAN}},
             "latency_spread"),
            ({"method": "fedprox", "method_kwargs": {"mu": NAN}}, "mu"),
            ({"method": "fedasync", "method_kwargs": {}, "max_retries": NAN},
             "max_retries"),
            ({"method": "tafedavg", "method_kwargs": {"staleness_exponent": NAN}},
             "staleness_exponent"),
            ({"method": "fedasync", "method_kwargs": {"hinge_delay": NAN}},
             "hinge_delay"),
            ({"method": "fedavg", "method_kwargs": {"krum_malicious": NAN}},
             "krum_malicious"),
            ({"method": "fedhisyn",
              "method_kwargs": {"round_length_multiplier": NAN}},
             "round_length_multiplier"),
        ],
    )
    def test_nan_rejected_before_training(self, kwargs, field):
        """NaN fails every comparison, so a `< 0` check lets it through;
        each of these used to train (or crash mid-run) on a NaN."""
        with pytest.raises(ValueError, match=rf"\b{field} must be"):
            build_experiment(fast_spec(**kwargs))

    def test_dict_round_trip(self):
        spec = fast_spec(het_ratio=4.0, selection="datasize")
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        data = fast_spec().to_dict()
        data["warp_speed"] = 9
        with pytest.raises(ValueError, match="warp_speed"):
            ExperimentSpec.from_dict(data)


class TestSelectionWiring:
    def test_default_no_policy(self):
        srv = build_experiment(fast_spec())
        assert srv.selection_policy is None

    def test_selection_field_sets_policy(self):
        from repro.core.selection import FastestSelection

        srv = build_experiment(fast_spec(selection="fastest",
                                         selection_fraction=0.5))
        assert isinstance(srv.selection_policy, FastestSelection)
        assert srv.selection_policy.fraction == 0.5

    def test_selection_fraction_defaults_to_participation(self):
        srv = build_experiment(
            fast_spec(selection="datasize", participation=0.5)
        )
        assert srv.selection_policy.fraction == 0.5

    def test_selection_recorded_in_result(self):
        result = run_experiment(fast_spec(selection="fastest", rounds=1,
                                          selection_fraction=0.5))
        assert result.config["selection"] == "fastest"
        assert result.config["selection_fraction"] == 0.5

    def test_selection_fraction_normalizes_cost_unit(self):
        baseline = build_experiment(fast_spec())
        srv = build_experiment(fast_spec(selection="fastest",
                                         selection_fraction=0.5))
        # Cost normalizer follows what the policy actually admits, not the
        # (full) configured participation.
        assert srv.per_round_unit == pytest.approx(0.5 * baseline.per_round_unit)

    def test_fastest_selection_changes_participants(self):
        spec = fast_spec(selection="fastest", selection_fraction=0.5,
                         het_ratio=4.0)
        srv = build_experiment(spec)
        chosen = srv.select_participants(1)
        assert len(chosen) == 3  # half of 6 devices
        slowest = int(np.argmax(srv.fleet.unit_times))
        assert slowest not in chosen.tolist()


class TestRunExperiment:
    def test_returns_result_with_config(self):
        result = run_experiment(fast_spec())
        assert result.method == "fedhisyn"
        assert result.config["dataset"] == "mnist_like"
        assert result.config["partition"] == "dirichlet"
        assert len(result.history.rounds) == 2

    @pytest.mark.parametrize("cell", ["every_axis", "live"])
    def test_config_echo_matches_the_frozen_dict(self, cell):
        # The echo walks AXES / _OPTIONAL; the frozen dict pins which keys
        # and values that must produce (order is free).
        frozen = json.loads((GOLDEN_CLI / "run_config.json").read_text())[cell]
        result = run_experiment(ExperimentSpec(**frozen["spec"]))
        assert result.config == frozen["config"]

    def test_echo_omits_fields_the_method_ignores(self):
        # FedHiSyn's config has neither field: the run never took them.
        result = run_experiment(fast_spec(aggregator="median", buffer_goal=3))
        assert "aggregator" not in result.config
        assert "buffer_goal" not in result.config

    def test_echo_includes_method_kwargs(self):
        result = run_experiment(fast_spec(method="fedprox", method_kwargs={"mu": 0.05}))
        assert result.config["method_kwargs"] == {"mu": 0.05}
        plain = run_experiment(fast_spec(method="fedavg", method_kwargs={}))
        assert "method_kwargs" not in plain.config

    def test_echo_omits_fields_method_kwargs_override(self):
        spec = fast_spec(method="fedavg", aggregator="median",
                         method_kwargs={"aggregator": "krum"})
        assert build_experiment(spec).config.aggregator == "krum"
        assert "aggregator" not in run_experiment(spec).config

    def test_with_method_preserves_setup(self):
        spec = fast_spec()
        other = spec.with_method("fedavg")
        assert other.method == "fedavg"
        assert other.dataset == spec.dataset
        assert other.seed == spec.seed

    def test_same_seed_same_result(self):
        a = run_experiment(fast_spec(seed=11))
        b = run_experiment(fast_spec(seed=11))
        np.testing.assert_array_equal(a.final_weights, b.final_weights)

    def test_different_seed_different_result(self):
        a = run_experiment(fast_spec(seed=1))
        b = run_experiment(fast_spec(seed=2))
        assert not np.array_equal(a.final_weights, b.final_weights)


class TestEnvironmentWiring:
    def test_default_env_is_ideal(self):
        srv = build_experiment(fast_spec())
        assert srv.env.name == "ideal"
        assert srv.env.network.is_instant
        assert srv.env.network.drop_prob == 0.0
        assert srv.env.availability.always_on

    def test_env_field_reaches_server(self):
        srv = build_experiment(fast_spec(env="churn"))
        assert srv.env.name == "churn"
        assert not srv.env.availability.always_on

    def test_env_kwargs_override(self):
        srv = build_experiment(fast_spec(env="lan",
                                         env_kwargs={"drop_prob": 0.2}))
        assert srv.env.network.drop_prob == 0.2

    def test_fedhisyn_engine_shares_env(self):
        srv = build_experiment(fast_spec(method="fedhisyn", env="satellite",
                                         method_kwargs={"num_classes": 2}))
        assert srv.engine.network is srv.env.network

    def test_bad_env_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="unknown environment"):
            fast_spec(env="the_moon")
        with pytest.raises(ValueError, match="env_kwargs"):
            fast_spec(env="wan", env_kwargs={"warp_speed": 9})
        with pytest.raises(ValueError, match="env_kwargs must be a dict"):
            fast_spec(env_kwargs="lossy")

    def test_env_spec_round_trips_through_json(self):
        import json as _json

        spec = fast_spec(env="flaky_mobile",
                         env_kwargs={"drop_prob": 0.1, "up_prob": 0.8})
        wire = _json.loads(_json.dumps(spec.to_dict()))
        assert ExperimentSpec.from_dict(wire) == spec

    def test_run_records_env_in_config(self):
        result = run_experiment(fast_spec(rounds=1, env="churn",
                                          env_kwargs={"up_prob": 0.8}))
        assert result.config["env"] == "churn"
        assert result.config["env_kwargs"] == {"up_prob": 0.8}

    def test_non_ideal_run_is_deterministic(self):
        a = run_experiment(fast_spec(rounds=2, env="flaky_mobile", seed=7))
        b = run_experiment(fast_spec(rounds=2, env="flaky_mobile", seed=7))
        assert a.history.to_dict() == b.history.to_dict()

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_every_method_survives_flaky_mobile(self, method):
        spec = fast_spec(method=method, method_kwargs={}, rounds=2,
                         env="flaky_mobile",
                         env_kwargs={"drop_prob": 0.2, "up_prob": 0.7})
        result = run_experiment(spec)
        assert np.isfinite(result.final_weights).all()
        assert len(result.history.rounds) == 2

    def test_latency_env_slows_virtual_time(self):
        fast = run_experiment(fast_spec(rounds=2))
        slow = run_experiment(fast_spec(rounds=2, env="satellite"))
        assert slow.history.times[-1] > fast.history.times[-1]


class TestFleetProfiles:
    def test_profile_fills_population_defaults(self):
        spec = ExperimentSpec(fleet_profile="city")
        assert spec.num_devices == FLEET_PROFILES["city"]["num_devices"]
        assert spec.num_samples == FLEET_PROFILES["city"]["num_samples"]
        assert spec.participation == FLEET_PROFILES["city"]["participation"]

    def test_explicit_fields_beat_the_profile(self):
        """A field moved off its default keeps the explicit value, so
        grids over profile-covered fields still vary (a profile supplies
        defaults, it is not authoritative)."""
        spec = ExperimentSpec(fleet_profile="lab", num_devices=3)
        assert spec.num_devices == 3
        assert spec.num_samples == FLEET_PROFILES["lab"]["num_samples"]

    def test_profile_does_not_collapse_grids(self):
        from repro.campaign import sweep

        specs = sweep(
            ExperimentSpec(fleet_profile="city"),
            {"participation": [0.2, 0.5]},
        )
        assert [s.participation for s in specs] == [0.2, 0.5]
        assert all(
            s.num_devices == FLEET_PROFILES["city"]["num_devices"]
            for s in specs
        )

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="fleet_profile"):
            fast_spec(fleet_profile="galaxy")

    def test_profile_round_trips_through_json(self):
        import json as _json

        for spec in (ExperimentSpec(fleet_profile="city"),
                     fast_spec(fleet_profile="bench")):
            wire = _json.loads(_json.dumps(spec.to_dict()))
            assert ExperimentSpec.from_dict(wire) == spec

    def test_profile_is_sweepable(self):
        from repro.campaign import sweep

        specs = sweep(ExperimentSpec(), {"fleet_profile": ["bench", "lab"]})
        assert [s.num_devices for s in specs] == [
            FLEET_PROFILES["bench"]["num_devices"],
            FLEET_PROFILES["lab"]["num_devices"],
        ]

    def test_none_profile_leaves_fields_alone(self):
        spec = fast_spec(num_devices=7)
        assert spec.fleet_profile is None
        assert spec.num_devices == 7


class TestMegaProfile:
    def test_mega_fields(self):
        spec = ExperimentSpec(fleet_profile="mega")
        assert spec.num_devices == 1_000_000
        assert spec.partition == "contiguous"
        assert spec.participation == 0.001
        assert spec.test_fraction == 0.005

    def test_explicit_partition_wins_over_profile(self):
        spec = ExperimentSpec(fleet_profile="mega", partition="iid")
        assert spec.partition == "iid"

    def test_contiguous_spec_builds_and_runs(self):
        spec = ExperimentSpec(
            method="fedbuff", num_samples=400, num_devices=16, rounds=2,
            partition="contiguous", local_epochs=1, seed=0, buffer_goal=2,
        )
        restored = ExperimentSpec.from_dict(spec.to_dict())
        assert restored == spec
        result = run_experiment(spec)
        assert result.final_accuracy >= 0.0

    def test_unknown_partition_rejected(self):
        with pytest.raises(ValueError, match="partition"):
            ExperimentSpec(partition="bogus")
