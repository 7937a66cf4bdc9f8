"""Stacked vs scalar training at the experiment level.

Every method trains its waves through ``repro.device.batched.run_units``,
stacked on the server's batched trainer by default.  Stacking is an
execution strategy, not a semantic knob: for every method — the barrier
family's rounds, SCAFFOLD, FedAT's tier rounds, FedHiSyn's ring waves, the
event loop's completion waves — environment and codec combination, the
default run must reproduce the scalar oracle's run (``server.batched_trainer
= None``, see ``tests/golden/generate.py``) bit for bit where the BLAS
canary ``stacked_gemm_is_bitwise()`` holds and to 1e-12 elsewhere.  Models
the engine cannot stack (CNNs) take the scalar path by themselves.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, build_experiment, run_experiment
from repro.nn.batched import stacked_gemm_is_bitwise
from tests.golden.generate import run_oracle, scalar_oracle

BASE = dict(
    dataset="mnist_like",
    num_devices=10,
    num_samples=500,
    rounds=2,
    participation=0.5,
    seed=1,
)


def _pair(**overrides):
    """(default result, oracle result) for one spec point."""
    spec = ExperimentSpec(**{**BASE, **overrides})
    return run_experiment(spec), run_oracle(spec)


def _assert_equivalent(default, oracle):
    if stacked_gemm_is_bitwise():
        np.testing.assert_array_equal(default.final_weights, oracle.final_weights)
        assert default.history.accuracies == oracle.history.accuracies
    else:
        np.testing.assert_allclose(
            default.final_weights, oracle.final_weights, rtol=1e-12, atol=1e-12
        )
    # Everything that is not weight float ops must be *identical*: stacking
    # may not perturb selection, clocks, byte metering or epochs.
    assert default.history.times == oracle.history.times
    assert default.per_round_unit == oracle.per_round_unit
    assert default.transport == oracle.transport


@pytest.mark.parametrize("method", ["fedavg", "fedprox", "tfedavg", "scaffold"])
@pytest.mark.parametrize("env", ["ideal", "wan"])
def test_methods_and_envs(method, env):
    _assert_equivalent(*_pair(method=method, env=env))


@pytest.mark.parametrize("method", ["fedavg", "scaffold"])
def test_topk_codec(method):
    # Error feedback makes the codec stateful: equal wire bytes and equal
    # weights over two rounds mean stacking fed it identical updates in
    # identical order.
    _assert_equivalent(*_pair(
        method=method, env="wan", codec="topk", codec_kwargs={"fraction": 0.2}
    ))


WAVE_METHODS = {
    "fedhisyn": dict(method_kwargs={"num_classes": 2}),
    "fedasync": dict(rounds=12),
    "fedbuff": dict(rounds=6, buffer_goal=3),
    "fedat": dict(method_kwargs={"num_tiers": 2}),
}


def _stack_widths(**overrides):
    """Member counts of every stacked call of one default run."""
    server = build_experiment(ExperimentSpec(**{**BASE, **overrides}))
    widths = []
    # Patched on the instance, as benchmarks/e2e/trace.py does.
    stacked = server.batched_trainer.train_round
    server.batched_trainer.train_round = lambda ids, *a, **k: (
        widths.append(len(ids)), stacked(ids, *a, **k))[1]
    server.fit()
    return widths


@pytest.mark.parametrize("method", sorted(WAVE_METHODS))
@pytest.mark.parametrize("env", ["ideal", "churn"])
def test_wave_methods_and_envs(method, env):
    cell = dict(method=method, env=env, participation=1.0, **WAVE_METHODS[method])
    _assert_equivalent(*_pair(**cell))
    assert max(_stack_widths(**cell)) >= 2  # waves really train as stacks


def _lossy_topk(method):
    return dict(
        method=method, env="flaky_mobile", participation=1.0, codec="topk",
        codec_kwargs={"fraction": 0.2}, **WAVE_METHODS[method],
    )


@pytest.mark.parametrize("method", sorted(WAVE_METHODS))
def test_wave_methods_topk_over_lossy_links(method):
    # Peer hops / uploads go through the stateful top-k codec and the shared
    # drop stream after the wave has trained: same bytes, same drops.
    _assert_equivalent(*_pair(**_lossy_topk(method)))


def test_fedat_tier_rounds_stack_over_lossy_links():
    # Lost pulls shrink a tier-round's wave but the survivors still stack
    # (the event loop's per-link latencies leave it singleton waves here).
    assert max(_stack_widths(**_lossy_topk("fedat"))) >= 2


def test_fault_armed_event_loop_stacks_units_trained_ahead():
    # An armed fault model schedules one completion per entry, but the
    # event loop trains in-flight units ahead of their completion, so its
    # stacks fill from unit begins rather than from wave packing.
    cell = dict(
        method="fedbuff", env="churn", participation=1.0, rounds=6, buffer_goal=3,
        faults="crash", fault_kwargs={"crash_prob": 0.2},
    )
    default, oracle = _pair(**cell)
    _assert_equivalent(default, oracle)
    assert default.resilience == oracle.resilience
    assert max(_stack_widths(**cell)) >= 2


FAULTS = {
    "none": {},
    "crash": dict(faults="crash", fault_kwargs={"crash_prob": 0.3}),
    "compound": dict(
        faults="compound", fault_kwargs={"crash_prob": 0.3, "straggle_prob": 0.3}
    ),
}


@pytest.mark.parametrize("faults", sorted(FAULTS))
@pytest.mark.parametrize("env", ["churn", "flaky_mobile+topk"])
@pytest.mark.parametrize("method", ["fedasync", "fedbuff"])
def test_event_loop_train_ahead_matches_the_oracle(method, env, faults):
    # Units train ahead, out of completion order, in stacks mixing waves:
    # neither the weights nor the fault ledger may notice.
    cell = (
        _lossy_topk(method) if env.endswith("topk")
        else dict(method=method, env=env, participation=1.0, **WAVE_METHODS[method])
    )
    default, oracle = _pair(**cell, **FAULTS[faults])
    _assert_equivalent(default, oracle)
    assert default.resilience == oracle.resilience
    if faults != "none":  # crashes drop units that may have trained ahead
        assert default.resilience["injected_crashes"] > 0


def test_fedhisyn_oracle_pins_the_scalar_path_in_the_ring_engine():
    # The engine trains on whatever trainer the server hands run_round.
    spec = ExperimentSpec(method="fedhisyn", **BASE, method_kwargs={"num_classes": 2})
    for oracle in (False, True):
        server = build_experiment(spec)
        if oracle:
            scalar_oracle(server)
        seen = []
        run_round = server.engine.run_round
        server.engine.run_round = lambda *a, **k: (
            seen.append(k["batched"]), run_round(*a, **k))[1]
        server.fit()
        assert seen and all(b is server.batched_trainer for b in seen)
        assert (server.batched_trainer is None) == oracle


def test_fedprox_anchor_is_exercised():
    # Guard against the stacked path silently dropping the proximal term.
    fedavg, _ = _pair(method="fedavg")
    fedprox, _ = _pair(method="fedprox", method_kwargs={"mu": 0.5})
    assert not np.array_equal(fedavg.final_weights, fedprox.final_weights)


def test_batchable_spec_builds_the_engine():
    server = build_experiment(ExperimentSpec(method="fedavg", **BASE))
    assert server.batched_trainer is not None


def test_oracle_trains_member_by_member():
    server = scalar_oracle(build_experiment(ExperimentSpec(method="fedavg", **BASE)))
    calls = []
    train = server.trainer.train
    server.trainer.train = lambda *a, **k: (calls.append(a[1]), train(*a, **k))[1]
    server.fit()
    assert server.batched_trainer is None
    assert len(calls) >= BASE["rounds"]  # one scalar call per unit


def test_hand_built_server_trains_like_a_built_one():
    # The engine is built in FederatedServer.__init__, so a server
    # constructed around a fleet directly stacks exactly like
    # build_experiment's.
    from repro.baselines.fedavg import FedAvgServer

    built = build_experiment(ExperimentSpec(method="fedavg", **BASE))
    hand = FedAvgServer(built.fleet, built.test_set, built.config, env=built.env)
    assert hand.batched_trainer is not None
    assert hand.batched_trainer.trainer is built.trainer
    assert hand.batched_trainer.fleet is built.fleet


CNN = dict(
    dataset="cifar10_like", model_family="cnn", num_devices=4,
    num_samples=120, rounds=1, seed=1,
)


def test_cnn_falls_back_to_sequential():
    server = build_experiment(ExperimentSpec(method="fedavg", **CNN))
    assert server.batched_trainer is None  # scalar by construction, not an error


def test_scaffold_on_a_cnn_runs_the_scalar_branch_with_corrections():
    spec = ExperimentSpec(method="scaffold", **{**CNN, "rounds": 2})
    server = build_experiment(spec)
    assert server.batched_trainer is None
    corrections = []
    train = server.trainer.train
    server.trainer.train = lambda *a, **k: (
        corrections.append(k["correction"]), train(*a, **k))[1]
    default = server.fit()
    # Round 2 trains against non-zero control variates, one row per member.
    assert len(corrections) == 2 * CNN["num_devices"]
    assert all(c is not None and c.shape == (server.trainer.dim,) for c in corrections)
    assert any(np.any(c != 0.0) for c in corrections)
    oracle = run_oracle(spec)
    np.testing.assert_array_equal(default.final_weights, oracle.final_weights)
    assert default.history.accuracies == oracle.history.accuracies


def test_mlp_on_image_data_batches():
    # build_model fronts the MLP with Flatten on (C, H, W) data; the engine
    # must accept that stack and match the scalar run.
    image = dict(
        dataset="cifar10_like", num_devices=6, num_samples=240, rounds=1, seed=1
    )
    default, oracle = _pair(**{**image, "participation": 1.0}, method="fedavg")
    _assert_equivalent(default, oracle)


def test_removed_field_is_rejected():
    # Stacking is not a mode: the old switch is an unknown field, with no
    # compatibility shim (cache keys derived from it miss once).
    with pytest.raises(TypeError, match="device_batching"):
        ExperimentSpec(device_batching="off")
    data = {**ExperimentSpec(method="fedavg", **BASE).to_dict(), "device_batching": "off"}
    with pytest.raises(ValueError, match=r"unknown ExperimentSpec field\(s\)"):
        ExperimentSpec.from_dict(data)


GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"


def test_golden_fedavg_within_tolerance_by_default():
    """Goldens are pinned on the scalar oracle; the default stacked run
    must stay within the documented 1e-12 of them (equal on bitwise
    platforms)."""
    gold = json.loads((GOLDEN_DIR / "fedavg.json").read_text())
    result = run_experiment(ExperimentSpec(**gold["spec"]))
    assert math.isclose(
        float(result.final_weights.sum()),
        gold["final_weights_sum"],
        rel_tol=1e-9,
    )
