"""Smoke test of the end-to-end benchmark (tier-1, ``--scale smoke``).

Checks the benchmark's shape, not the program's speed: every workload emits
every metric, names and counts fit the driver's schema, ``BENCHMARK.json``
matches the tables, the tracer puts back everything it patched and tracing
does not change a simulated result.
"""

from __future__ import annotations

import json
import re
import sys

import pytest

from benchmarks.e2e import compare, harness, run
from benchmarks.e2e.__main__ import _README, benchmark_doc, readme_tables
from benchmarks.e2e.metrics import E2E, LAYERS, SIMULATED
from benchmarks.e2e.workloads import WORKLOADS, make_job

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced and one traced smoke child per workload."""
    out = tmp_path_factory.mktemp("e2e")
    return {
        name: harness.run_workload(workload, "smoke", 0, out, seconds=0, traced=True)
        for name, workload in WORKLOADS.items()
    }


def test_tables_fit_the_driver_schema():
    doc = benchmark_doc()
    assert json.loads((harness.ROOT / "BENCHMARK.json").read_text()) == doc
    assert readme_tables() in _README.read_text(encoding="utf-8")
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in doc[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_workload_emits_every_metric(smoke):
    for name, result in smoke.items():
        assert result["failed"] == 0, result["failed_checks"]
        assert result["attempted"] >= 2
        for m in E2E:
            value = result["e2e"][m.name]["median"]
            assert value is not None and value == value and value > 0, (name, m.name)
        assert set(result["layers"]) == {m.name for m in LAYERS}


def test_layers_show_where_designed(smoke):
    layers = {name: r["layers"] for name, r in smoke.items()}
    assert layers["ring_lab"]["device.unit_train_calls"] > 0
    assert layers["ring_lab"]["simulation.ring_engine_s"] > 0
    assert layers["ring_lab"]["compression.calls"] == 0
    assert layers["metro_wan"]["compression.encode_s"] > 0
    assert layers["metro_wan"]["compression.ratio"] > 1
    assert layers["metro_wan"]["faults.slowdowns"] > 0
    assert layers["async_churn"]["core.async.unit_complete_s"] > 0
    assert layers["async_churn"]["simulation.events"] > layers["ring_lab"]["simulation.events"]
    assert layers["metro_wan"]["core.async.unit_complete_s"] == 0
    assert layers["table1_sweep"]["campaign.cell_s.fedhisyn"] > 0
    assert 0 < layers["table1_sweep"]["campaign.pool_busy_frac"]
    assert layers["ring_lab"]["campaign.cell_s.fedhisyn"] == 0


def test_tracing_leaves_simulated_metrics_identical(tmp_path):
    workload = WORKLOADS["metro_wan"]
    base = harness.measure(workload, "smoke", 3, tmp_path)
    traced = harness.measure_traced(workload, "smoke", base, tmp_path)
    assert traced["failed"] == 0, traced["checks"]
    assert [traced["e2e"][m] for m in SIMULATED] == [base["e2e"][m] for m in SIMULATED]
    header = json.loads((tmp_path / "metro_wan.trace.jsonl").open().readline())
    assert header["spans"] == traced["layers"]["trace.spans"] > 0


def test_tracer_restores_every_patched_attribute():
    import repro.experiments
    from repro.experiments import ExperimentSpec, build_experiment
    from repro.simulation.results import RunResult
    from repro.simulation.scheduler import Scheduler

    from benchmarks.e2e.trace import Tracer, install, instrument_server

    def snapshot(*owned):
        """Identity of every attribute the tracer may touch."""
        owners = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == "repro" or name.startswith("repro."))
        ]
        return [{k: id(v) for k, v in vars(o).items()} for o in (*owners, Scheduler, RunResult, *owned)]

    spec = ExperimentSpec(**make_job(WORKLOADS["metro_wan"], "smoke", 0)["spec"])
    server = build_experiment(spec)
    owned = (server, server.trainer, server.transport, server.env, server.env.network,
             server.codec, server.faults, server.batched_trainer)
    before = snapshot(*owned)
    partition = repro.experiments.partition_by_name
    tracer = Tracer()
    try:  # whatever fails here, the rest of the suite gets its modules back
        install(tracer)
        instrument_server(tracer, server)
        assert len(tracer.patched) > 20
        assert repro.experiments.partition_by_name is not partition
        assert snapshot(*owned) != before
    finally:
        tracer.restore()
    assert not tracer.patched
    assert snapshot(*owned) == before


def test_compare_verdicts():
    def doc(wall, accuracy=0.9, seed=0):
        e2e = {m.name: harness.summarize([1.0, 1.0, 1.0]) for m in E2E}
        e2e["run_wall_s"] = harness.summarize(wall)
        e2e["final_accuracy"] = harness.summarize([accuracy] * 3)
        return {"seed": seed, "scale": "full",
                "workloads": {"w": {"attempted": 3, "failed": 0, "e2e": e2e}}}

    bounds = compare.load_bounds()
    verdict = lambda a, b: {r["metric"]: r["verdict"] for r in compare.compare(a, b, bounds)[0]}
    assert compare.compare(doc([1.0, 1.01, 1.02]), doc([1.0, 1.01, 1.02]), bounds)[1] == []
    assert verdict(doc([1.0, 1.01, 1.02]), doc([1.5, 1.51, 1.52]))["run_wall_s"] == "regression"
    assert verdict(doc([1.0, 1.0, 1.0]), doc([0.6, 1.0, 1.5]))["run_wall_s"] == "unresolved"
    assert verdict(doc([0.9, 1.0, 1.4]), doc([0.3, 0.4, 0.5]))["run_wall_s"] == "ok"
    problems = compare.compare(doc([1.0, 1.0]), doc([1.0, 1.0], accuracy=0.91), bounds)[1]
    assert any("mismatch" in p for p in problems)
    # Another seed is other work and other simulated results: nothing is compared.
    rows, problems = compare.compare(doc([1.0, 1.0]), doc([1.0, 1.0], seed=1), bounds)
    assert not rows and problems


def test_failed_operations_are_counted_by_cell():
    from benchmarks.e2e.child import _check, _failed_operations

    checks: list = []
    _check(checks, "fedavg.seed0.uploads", False, cells=["fedavg.seed0"])
    _check(checks, "fedavg.accuracy_floor", False, cells=["fedavg.seed0"])
    _check(checks, "scaffold.accuracy_floor", False, soft=True, cells=["scaffold.seed0"])
    assert _failed_operations(checks, 7) == 1
    _check(checks, "cells", False)  # names no cell: every cell is suspect
    assert _failed_operations(checks, 7) == 7


def test_driver_entry_point_prints_one_result_line(capsys):
    argv = ["--workload", "async_churn", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv, scale="smoke") == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m.name for m in E2E if m.bound is not None}
    assert all(v["value"] > 0 and v["unit"] for v in line["metrics"].values())
