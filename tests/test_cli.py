"""Tests for the subcommand command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main, spec_from_args


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.command == "run"
        assert args.method == "fedhisyn"
        assert args.dataset == "mnist_like"
        assert args.eval_every == 1

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_spec_from_args(self):
        args = build_parser().parse_args(
            ["run", "--dataset", "cifar10_like", "--devices", "8",
             "--beta", "0.5", "--het-ratio", "4", "--eval-every", "2"]
        )
        spec = spec_from_args(args)
        assert spec.dataset == "cifar10_like"
        assert spec.num_devices == 8
        assert spec.beta == 0.5
        assert spec.het_ratio == 4.0
        assert spec.eval_every == 2

    def test_convenience_flags_land_on_the_selected_name_only(self):
        args = build_parser().parse_args(
            ["run", "--num-classes", "3", "--topk-frac", "0.2", "--codec", "topk",
             "--byzantine-frac", "0.1", "--workers-live", "4"]
        )
        spec = spec_from_args(args)
        assert spec.method_kwargs == {"num_classes": 3}
        assert spec.codec_kwargs == {"fraction": 0.2}
        assert spec.fault_kwargs == {} and spec.transport_kwargs == {}
        assert spec_from_args(args, method="fedavg").method_kwargs == {}

    def test_selection_args_reach_spec(self):
        args = build_parser().parse_args(
            ["run", "--selection", "fastest", "--selection-fraction", "0.5"]
        )
        spec = spec_from_args(args)
        assert spec.selection == "fastest"
        assert spec.selection_fraction == 0.5

    def test_bad_dataset_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "imagenet"])

    def test_bad_model_family_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model-family", "transformer"])


COMMON = [
    "--samples", "400", "--devices", "5", "--rounds", "2",
    "--num-classes", "2",
]


class TestRun:
    def test_single_method(self, capsys):
        rc = main(["run", "--method", "fedhisyn", *COMMON, "--quiet"])
        assert rc == 0
        assert "fedhisyn: final accuracy" in capsys.readouterr().out

    def test_unknown_method_error(self, capsys):
        rc = main(["run", "--method", "fancyfl", *COMMON, "--quiet"])
        assert rc == 2
        assert "unknown method" in capsys.readouterr().err

    def test_empty_method_list_error(self, capsys):
        for command in ("run", "compare", "sweep"):
            assert main([command, "--method", ",", *COMMON]) == 2
            assert "--method needs at least one name" in capsys.readouterr().err

    def test_multiple_methods_rejected(self, capsys):
        rc = main(["run", "--method", "fedhisyn,fedavg", *COMMON, "--quiet"])
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    def test_verbose_round_log(self, capsys):
        rc = main(["run", "--method", "tfedavg", "--samples", "400",
                   "--devices", "5", "--rounds", "2"])
        assert rc == 0
        assert "[tfedavg]" in capsys.readouterr().out

    def test_json_output(self, capsys):
        rc = main(["run", "--method", "fedavg", *COMMON, "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "fedavg"
        assert len(payload["history"]["accuracies"]) == 2


class TestCompare:
    def test_comparison_table(self, capsys):
        rc = main(["compare", "--method", "fedhisyn,tfedavg", *COMMON,
                   "--target", "0.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fedhisyn" in out and "tfedavg" in out
        assert "cost@50%" in out

    def test_unknown_method_error(self, capsys):
        rc = main(["compare", "--method", "fedhisyn,fancyfl", *COMMON])
        assert rc == 2
        assert "unknown method" in capsys.readouterr().err


class TestSweep:
    def test_sweep_aggregates_seeds(self, capsys):
        rc = main(["sweep", "--method", "fedavg", "--seeds", "0,1", *COMMON,
                   "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "±" in out  # mean±std over the two seeds
        assert "2 runs" in out

    def test_sweep_cache_round_trip(self, tmp_path, capsys):
        argv = ["sweep", "--method", "fedavg", "--seeds", "0", *COMMON,
                "--cache-dir", str(tmp_path), "--quiet"]
        assert main(argv) == 0
        assert "(0 cached)" in capsys.readouterr().out
        assert main(argv) == 0
        assert "(1 cached)" in capsys.readouterr().out

    def test_sweep_grid_axis(self, capsys):
        rc = main(["sweep", "--method", "fedavg", "--seeds", "0",
                   "--grid", "beta=0.3,0.8", *COMMON, "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "beta" in out and "0.8" in out

    def test_bad_grid_field_error(self, capsys):
        rc = main(["sweep", "--method", "fedavg", "--seeds", "0",
                   "--grid", "nonsense=1,2", *COMMON, "--quiet"])
        assert rc == 2
        assert "unknown ExperimentSpec field" in capsys.readouterr().err

    def test_bad_grid_value_error(self, capsys):
        rc = main(["sweep", "--method", "fedavg", "--seeds", "0",
                   "--grid", "lr=fast", *COMMON, "--quiet"])
        assert rc == 2
        assert "lr must be a number" in capsys.readouterr().err

    def test_bad_grid_name_fails_before_anything_trains(self, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a cell ran before the bad one was rejected")

        monkeypatch.setattr("repro.campaign.Campaign.run", no_run)
        rc = main(["sweep", "--method", "fedavg", "--seeds", "0",
                   "--grid", "dataset=mnist_like,typo", *COMMON, "--quiet"])
        assert rc == 2
        assert "error: unknown dataset 'typo'; known:" in capsys.readouterr().err

    def test_zero_workers_error(self, capsys):
        rc = main(["sweep", "--method", "fedavg", "--seeds", "0",
                   "--workers", "0", *COMMON, "--quiet"])
        assert rc == 2
        assert "--workers" in capsys.readouterr().err

    def test_json_output(self, capsys):
        rc = main(["sweep", "--method", "fedavg", "--seeds", "0,1", *COMMON,
                   "--json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["seeds"] == 2


class TestList:
    @pytest.mark.parametrize("what", ["methods", "datasets", "selections"])
    def test_sections(self, what, capsys):
        assert main(["list", what]) == 0
        out = capsys.readouterr().out
        assert {"methods": "fedhisyn", "datasets": "mnist_like",
                "selections": "bernoulli"}[what] in out

    def test_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "methods:" in out and "datasets:" in out

    # The text users and scripts see; a registry refactor must not move it.
    FROZEN = (Path(__file__).parent / "golden" / "cli" / "list_all.txt").read_text()

    def test_all_matches_frozen_text(self, capsys):
        assert main(["list"]) == 0
        assert capsys.readouterr().out == self.FROZEN

    @pytest.mark.parametrize("what, title", [
        ("methods", "methods"), ("datasets", "datasets"),
        ("selections", "selection policies"), ("envs", "environments"),
        ("codecs", "codecs"), ("faults", "fault models"),
        ("transports", "transports"), ("fleets", "fleet profiles"),
    ])
    def test_each_section_matches_frozen_text(self, what, title, capsys):
        assert main(["list", what]) == 0
        (section,) = [
            block for block in self.FROZEN.rstrip("\n").split("\n\n")
            if block.startswith(f"{title}:")
        ]
        assert capsys.readouterr().out == section + "\n"


class TestEnvironmentFlags:
    def test_env_args_reach_spec(self):
        args = build_parser().parse_args(
            ["run", "--env", "flaky_mobile", "--drop-prob", "0.1",
             "--availability", "bernoulli"]
        )
        spec = spec_from_args(args)
        assert spec.env == "flaky_mobile"
        assert spec.env_kwargs == {"drop_prob": 0.1,
                                   "availability": "bernoulli"}

    def test_default_env_is_ideal_with_no_kwargs(self):
        spec = spec_from_args(build_parser().parse_args(["run"]))
        assert spec.env == "ideal"
        assert spec.env_kwargs == {}

    def test_units_flags_reach_spec(self):
        args = build_parser().parse_args(
            ["run", "--units-low", "2", "--units-high", "6"]
        )
        spec = spec_from_args(args)
        assert spec.units_low == 2
        assert spec.units_high == 6

    def test_bad_units_bounds_error(self, capsys):
        rc = main(["run", "--method", "fedavg", *COMMON, "--quiet",
                   "--units-low", "5", "--units-high", "2"])
        assert rc == 2
        assert "units_high" in capsys.readouterr().err

    def test_unknown_env_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--env", "the_moon"])

    def test_run_with_non_ideal_env(self, capsys):
        rc = main(["run", "--method", "fedavg", *COMMON, "--quiet",
                   "--env", "churn"])
        assert rc == 0
        assert "fedavg: final accuracy" in capsys.readouterr().out

    def test_run_json_records_env(self, capsys):
        rc = main(["run", "--method", "fedavg", *COMMON, "--json",
                   "--env", "satellite", "--drop-prob", "0.05"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["env"] == "satellite"
        assert payload["config"]["env_kwargs"] == {"drop_prob": 0.05}

    def test_sweep_env_grid_axis(self, capsys):
        rc = main(["sweep", "--method", "fedavg", "--seeds", "0",
                   "--grid", "env=ideal,churn", *COMMON, "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "env" in out and "churn" in out

    def test_list_envs(self, capsys):
        assert main(["list", "envs"]) == 0
        out = capsys.readouterr().out
        for name in ("ideal", "lan", "wan", "flaky_mobile"):
            assert name in out

    def test_list_all_includes_envs(self, capsys):
        assert main(["list"]) == 0
        assert "environments:" in capsys.readouterr().out


class TestFleetProfileFlags:
    def test_fleet_profile_reaches_spec(self):
        args = build_parser().parse_args(["run", "--fleet-profile", "lab"])
        spec = spec_from_args(args)
        assert spec.fleet_profile == "lab"
        assert spec.num_devices == 100

    def test_default_is_no_profile(self):
        spec = spec_from_args(build_parser().parse_args(["run"]))
        assert spec.fleet_profile is None

    def test_unknown_profile_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--fleet-profile", "galaxy"])

    def test_list_fleets(self, capsys):
        assert main(["list", "fleets"]) == 0
        out = capsys.readouterr().out
        assert "fleet profiles:" in out
        assert "metro" in out and "devices=20000" in out

    def test_profile_is_a_grid_axis(self, capsys, tmp_path):
        rc = main(["sweep", "--method", "fedavg", "--seeds", "0",
                   "--rounds", "1", "--quiet", "--json",
                   "--grid", "fleet_profile=bench",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert '"final_mean"' in capsys.readouterr().out


class TestAsyncFlags:
    def test_async_args_reach_spec(self):
        args = build_parser().parse_args(
            ["run", "--method", "fedbuff", "--buffer-goal", "4",
             "--staleness-decay", "hinge", "--eval-time-every", "0.5"]
        )
        spec = spec_from_args(args, method="fedbuff")
        assert spec.buffer_goal == 4
        assert spec.staleness_decay == "hinge"
        assert spec.eval_time_every == 0.5

    def test_bad_decay_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--staleness-decay", "bogus"])

    def test_run_fedasync(self, capsys):
        rc = main(["run", "--method", "fedasync", *COMMON, "--quiet"])
        assert rc == 0
        assert "fedasync: final accuracy" in capsys.readouterr().out

    def test_run_fedbuff_json_reports_time_to_target(self, capsys):
        rc = main(["run", "--method", "fedbuff", *COMMON, "--buffer-goal", "2",
                   "--json", "--target", "0.2"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "fedbuff"
        assert "time_to_target" in payload
        assert "checkpoint_times" in payload["history"]

    def test_async_methods_listed(self, capsys):
        main(["list", "methods"])
        out = capsys.readouterr().out
        assert "fedasync" in out and "fedbuff" in out

    def test_sweep_buffer_goal_grid(self, capsys):
        rc = main(["sweep", "--method", "fedbuff", "--seeds", "0",
                   *COMMON, "--grid", "buffer_goal=2,3", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign: 2 runs" in out and "buffer_goal" in out


class TestNoBatchingSwitch:
    """Stacked training is how waves train, not an option: the old
    ``--device-batching`` flag and ``device_batching`` grid axis are gone."""

    def test_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--device-batching", "off", *COMMON, "--quiet"])
        assert exit_info.value.code == 2
        assert "--device-batching" in capsys.readouterr().err

    def test_grid_axis_is_rejected(self, capsys):
        rc = main(["sweep", "--method", "fedavg", "--seeds", "0", *COMMON,
                   "--grid", "device_batching=auto,off", "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown ExperimentSpec field" in err and "device_batching" in err


class TestBench:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.command == "bench"
        assert args.scale == "quick"
        assert args.out == "BENCH_perf.json"
        assert args.repeats is None

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--scale", "galactic"])

    def test_forwards_to_suite(self, monkeypatch, tmp_path):
        # Swap the suite's entry point for a recorder: the CLI's job is
        # only to translate flags into the benchmarks argv.
        import benchmarks.perf.__main__ as bench_mod

        seen = {}

        def fake_main(argv):
            seen["argv"] = argv
            return 0

        monkeypatch.setattr(bench_mod, "main", fake_main)
        out = str(tmp_path / "b.json")
        rc = main(["bench", "--scale", "quick", "--out", out, "--repeats", "2"])
        assert rc == 0
        assert seen["argv"] == ["--scale", "quick", "--out", out,
                                "--repeats", "2"]
