"""Tests for the campaign layer: sweep expansion, hashing, caching,
parallel execution and seed aggregation."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import Campaign, CampaignResult, spec_hash, sweep
from repro.experiments import ExperimentSpec
from repro.simulation.results import RunResult

GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"


def fast_spec(**kwargs):
    base = dict(
        method="fedavg",
        dataset="mnist_like",
        num_samples=300,
        num_devices=4,
        rounds=2,
        local_epochs=1,
    )
    base.update(kwargs)
    return ExperimentSpec(**base)


class TestSweep:
    def test_cartesian_expansion(self):
        specs = sweep(fast_spec(), {"method": ["fedavg", "tfedavg"],
                                    "seed": [0, 1, 2]})
        assert len(specs) == 6
        assert {(s.method, s.seed) for s in specs} == {
            (m, s) for m in ("fedavg", "tfedavg") for s in (0, 1, 2)
        }

    def test_bad_axis_name_fails_at_expansion(self):
        # Every named axis is vetted when the spec is built, so the typo
        # cell raises before sweep returns anything to train.
        for axis, good in (("dataset", "mnist_like"), ("method", "fedavg"),
                           ("env", "ideal"), ("codec", "none")):
            with pytest.raises(ValueError, match=f"unknown {axis[:6]}.* 'typo'; known: "):
                sweep(fast_spec(), {axis: [good, "typo"]})

    def test_per_method_kwargs(self):
        specs = sweep(
            fast_spec(),
            {"method": ["fedhisyn", "fedavg"]},
            method_kwargs={"fedhisyn": {"num_classes": 2}},
        )
        by_method = {s.method: s for s in specs}
        assert by_method["fedhisyn"].method_kwargs == {"num_classes": 2}
        assert by_method["fedavg"].method_kwargs == {}

    def test_base_method_kwargs_do_not_leak_across_methods(self):
        base = fast_spec(method="fedhisyn", method_kwargs={"num_classes": 2})
        specs = sweep(base, {"method": ["fedhisyn", "fedavg"]})
        by_method = {s.method: s for s in specs}
        assert by_method["fedhisyn"].method_kwargs == {"num_classes": 2}
        assert by_method["fedavg"].method_kwargs == {}

    def test_unknown_field_raises(self):
        with pytest.raises(ValueError, match="unknown ExperimentSpec field"):
            sweep(fast_spec(), {"betamax": [0.1]})

    def test_empty_axis_raises(self):
        with pytest.raises(ValueError, match="empty"):
            sweep(fast_spec(), {"seed": []})

    def test_invalid_grid_value_fails_at_expansion(self):
        with pytest.raises(ValueError, match="participation"):
            sweep(fast_spec(), {"participation": [0.5, 2.0]})


class TestSpecHash:
    def test_stable(self):
        assert spec_hash(fast_spec()) == spec_hash(fast_spec())

    def test_any_field_changes_hash(self):
        base = spec_hash(fast_spec(method="fedprox"))
        assert spec_hash(fast_spec(method="fedprox", seed=1)) != base
        assert spec_hash(fast_spec(method="fedprox", method_kwargs={"mu": 0.1})) != base

    def test_hash_matches_frozen_literals(self):
        # On-disk campaign caches are keyed by this hash: a spec field,
        # default or to_dict change that moves it invalidates them all.
        frozen = json.loads((GOLDEN_CLI / "run_config.json").read_text())
        for cell in frozen.values():
            assert spec_hash(ExperimentSpec(**cell["spec"])) == cell["spec_hash"]

    def test_json_round_trip_preserves_hash(self):
        spec = fast_spec(method="fedprox", het_ratio=4.0, method_kwargs={"mu": 0.01})
        thawed = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert thawed == spec
        assert spec_hash(thawed) == spec_hash(spec)


class TestCampaign:
    def test_results_in_spec_order(self):
        specs = sweep(fast_spec(), {"seed": [3, 1, 2]})
        result = Campaign(specs).run()
        assert [e.spec.seed for e in result] == [3, 1, 2]
        assert all(not e.cached for e in result)

    def test_empty_campaign_raises(self):
        with pytest.raises(ValueError, match="at least one spec"):
            Campaign([])

    def test_cache_hit_on_second_run(self, tmp_path):
        specs = [fast_spec()]
        first = Campaign(specs, cache_dir=tmp_path).run()
        assert first.cache_hits == 0
        second = Campaign(specs, cache_dir=tmp_path).run()
        assert second.cache_hits == 1
        np.testing.assert_array_equal(
            first.results[0].final_weights, second.results[0].final_weights
        )
        assert (
            first.results[0].history.accuracies
            == second.results[0].history.accuracies
        )

    def test_cache_partial_superset(self, tmp_path):
        Campaign([fast_spec(seed=0)], cache_dir=tmp_path).run()
        result = Campaign(
            sweep(fast_spec(), {"seed": [0, 1]}), cache_dir=tmp_path
        ).run()
        assert [e.cached for e in result] == [True, False]

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        spec = fast_spec()
        Campaign([spec], cache_dir=tmp_path).run()
        (tmp_path / f"{spec_hash(spec)}.json").write_text("{not json")
        result = Campaign([spec], cache_dir=tmp_path).run()
        assert result.cache_hits == 0

    def test_parallel_workers_match_serial(self, tmp_path):
        specs = sweep(fast_spec(rounds=1), {"seed": [0, 1]})
        serial = Campaign(specs).run(workers=1)
        parallel = Campaign(specs).run(workers=2)
        for s, p in zip(serial.results, parallel.results):
            np.testing.assert_array_equal(s.final_weights, p.final_weights)

    def test_bad_workers_raises(self):
        with pytest.raises(ValueError, match="workers"):
            Campaign([fast_spec()]).run(workers=0)

    def test_progress_lines(self):
        lines = []
        Campaign([fast_spec(rounds=1)]).run(progress=lines.append)
        assert len(lines) == 1 and "fedavg" in lines[0]


class TestAggregation:
    @pytest.fixture(scope="class")
    def campaign_result(self) -> CampaignResult:
        specs = sweep(fast_spec(), {"method": ["fedavg", "tfedavg"],
                                    "seed": [0, 1]})
        return Campaign(specs).run()

    def test_groups_by_non_seed_fields(self, campaign_result):
        rows = campaign_result.aggregate()
        assert len(rows) == 2
        assert all(row["seeds"] == 2 for row in rows)
        assert {row["method"] for row in rows} == {"fedavg", "tfedavg"}

    def test_mean_std_consistent(self, campaign_result):
        rows = campaign_result.aggregate()
        by_method = {row["method"]: row for row in rows}
        finals = [
            e.result.final_accuracy
            for e in campaign_result
            if e.spec.method == "fedavg"
        ]
        assert by_method["fedavg"]["final_mean"] == pytest.approx(
            float(np.mean(finals))
        )
        assert by_method["fedavg"]["final_std"] == pytest.approx(
            float(np.std(finals))
        )

    def test_table_renders(self, campaign_result):
        table = campaign_result.to_table(target=0.5, title="t")
        assert "method" in table and "cost@50%" in table

    def test_json_rows(self, campaign_result):
        rows = json.loads(campaign_result.to_json(target=0.5))
        assert len(rows) == 2 and "final_mean" in rows[0]


class TestRunResultRoundTrip:
    def test_lossless_through_json(self):
        from repro.experiments import run_experiment

        result = run_experiment(fast_spec())
        thawed = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert thawed.method == result.method
        assert thawed.dataset == result.dataset
        assert thawed.per_round_unit == result.per_round_unit
        assert thawed.config == result.config
        np.testing.assert_array_equal(thawed.final_weights, result.final_weights)
        assert thawed.final_weights.dtype == np.float64
        assert thawed.history.to_dict() == result.history.to_dict()
