"""The perf suite's server-driving benches and its training-unit row, run
at a toy scale.

``repro bench`` drives the same server API the methods use (selection,
epoch budgets, whole fits) and the scalar ``LocalTrainer.train``.  These
run each such bench once at a scale of seconds, so a protocol change that
breaks the suite fails here rather than only in the dedicated bench job.
"""

from dataclasses import replace

import pytest

from benchmarks.perf.suite import (
    SCALES,
    _bench_fedavg_e2e,
    _bench_fedavg_round_batched,
    _bench_fedhisyn_round,
    _bench_train_unit,
)
from repro.nn.batched import stacked_gemm_is_bitwise

TINY = replace(
    SCALES["quick"],
    name="tiny",
    repeats=1,
    round_samples=100,
    rounds=1,
    fleet_devices=200,
    fleet_samples=1000,
)


@pytest.mark.parametrize("bench", [
    _bench_fedavg_round_batched,
    _bench_fedhisyn_round,
    _bench_fedavg_e2e,
], ids=lambda fn: fn.__name__.removeprefix("_bench_"))
def test_bench_runs_at_toy_scale(bench):
    entry = bench(TINY)
    assert entry["before_s"] > 0 and entry["after_s"] > 0
    assert entry["speedup"] == entry["before_s"] / entry["after_s"]
    detail = entry["detail"]
    if "max_abs_diff" in detail and stacked_gemm_is_bitwise():
        assert detail["max_abs_diff"] == 0.0
    if "participants" in detail:  # the selected id array drove the round
        assert 0 < detail["participants"] < TINY.fleet_devices


def test_train_unit_row_is_after_only():
    entry = _bench_train_unit(TINY)
    assert entry["after_s"] > 0 and "before_s" not in entry
    assert entry["detail"]["sgd_steps"] > 0
