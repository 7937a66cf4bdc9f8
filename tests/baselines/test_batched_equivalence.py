"""Batched vs sequential training at the experiment level.

``device_batching`` is an execution strategy, not a semantic knob: for every
method — the barrier family's rounds, FedHiSyn's ring waves, the event
loop's completion waves — environment and codec combination, ``"auto"``
must reproduce ``"off"``'s run to 1e-12 (bitwise on BLAS builds whose
stacked-GEMM slices are exact — the common case, probed by
tests/nn/test_batched_sequential.py).  Models the engine cannot stack
(CNNs) silently keep the sequential path.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from repro.experiments import ExperimentSpec, build_experiment, run_experiment

BASE = dict(
    dataset="mnist_like",
    num_devices=10,
    num_samples=500,
    rounds=2,
    participation=0.5,
    seed=1,
)


def _pair(**overrides):
    """(auto result, off result) for one spec point."""
    auto, off = (
        run_experiment(ExperimentSpec(**{**BASE, **overrides, "device_batching": mode}))
        for mode in ("auto", "off")
    )
    return auto, off


def _assert_equivalent(auto, off):
    np.testing.assert_allclose(
        auto.final_weights, off.final_weights, rtol=1e-12, atol=1e-12
    )
    # Everything that is not weight float ops must be *identical*: the
    # engine may not perturb selection, clocks, byte metering or epochs.
    assert auto.history.times == off.history.times
    assert auto.per_round_unit == off.per_round_unit
    assert auto.transport == off.transport


@pytest.mark.parametrize("method", ["fedavg", "fedprox", "tfedavg", "scaffold"])
@pytest.mark.parametrize("env", ["ideal", "wan"])
def test_methods_and_envs(method, env):
    auto, off = _pair(method=method, env=env)
    _assert_equivalent(auto, off)


@pytest.mark.parametrize("method", ["fedavg", "scaffold"])
def test_topk_codec(method):
    # Error feedback makes the codec stateful: equal wire bytes and 1e-12
    # weights over two rounds mean the batched path fed it identical
    # updates in identical order.
    auto, off = _pair(
        method=method, env="wan", codec="topk", codec_kwargs={"fraction": 0.2}
    )
    _assert_equivalent(auto, off)


WAVE_METHODS = {
    "fedhisyn": dict(method_kwargs={"num_classes": 2}),
    "fedasync": dict(rounds=12),
    "fedbuff": dict(rounds=6, buffer_goal=3),
}


def _stack_widths(**overrides):
    """Member counts of every stacked call of one ``"auto"`` run."""
    server = build_experiment(ExperimentSpec(**{**BASE, **overrides}))
    widths = []
    stacked = server.batched_trainer.train_round
    server.batched_trainer.train_round = lambda ids, *a, **k: (
        widths.append(len(ids)), stacked(ids, *a, **k))[1]
    server.fit()
    return widths


@pytest.mark.parametrize("method", sorted(WAVE_METHODS))
@pytest.mark.parametrize("env", ["ideal", "churn"])
def test_wave_methods_and_envs(method, env):
    cell = dict(method=method, env=env, participation=1.0, **WAVE_METHODS[method])
    auto, off = _pair(**cell)
    _assert_equivalent(auto, off)
    assert auto.history.accuracies == pytest.approx(off.history.accuracies, abs=1e-12)
    assert max(_stack_widths(**cell)) >= 2  # waves really train as stacks


@pytest.mark.parametrize("method", sorted(WAVE_METHODS))
def test_wave_methods_topk_over_lossy_links(method):
    # Peer hops / uploads go through the stateful top-k codec and the shared
    # drop stream after the wave has trained: same bytes, same drops.
    auto, off = _pair(
        method=method, env="flaky_mobile", participation=1.0, codec="topk",
        codec_kwargs={"fraction": 0.2}, **WAVE_METHODS[method],
    )
    _assert_equivalent(auto, off)


def test_fault_armed_event_loop_is_all_waves_of_one():
    # An armed fault model schedules one completion per entry, so nothing
    # stacks: the run is the scalar path, with the engine installed or not.
    cell = dict(
        method="fedbuff", env="churn", participation=1.0, rounds=6, buffer_goal=3,
        faults="crash", fault_kwargs={"crash_prob": 0.2},
    )
    auto, off = _pair(**cell)
    _assert_equivalent(auto, off)
    assert auto.resilience == off.resilience
    assert _stack_widths(**cell) == []


def test_fedhisyn_off_pins_the_scalar_path_in_the_ring_engine():
    spec = dict(method="fedhisyn", **BASE, method_kwargs={"num_classes": 2})
    auto = build_experiment(ExperimentSpec(**spec))
    assert auto.engine.batched_trainer is auto.batched_trainer is not None
    off = build_experiment(ExperimentSpec(**spec, device_batching="off"))
    assert off.engine.batched_trainer is None and off.batched_trainer is None


def test_fedprox_anchor_is_exercised():
    # Guard against the fast path silently dropping the proximal term.
    fedavg, _ = _pair(method="fedavg")
    fedprox, _ = _pair(method="fedprox", method_kwargs={"mu": 0.5})
    assert not np.array_equal(fedavg.final_weights, fedprox.final_weights)


def test_auto_installs_engine_on_batchable_spec():
    server = build_experiment(ExperimentSpec(method="fedavg", **BASE))
    assert server.batched_trainer is not None


def test_off_keeps_sequential_path():
    server = build_experiment(
        ExperimentSpec(method="fedavg", **BASE, device_batching="off")
    )
    assert server.batched_trainer is None


def test_cnn_falls_back_to_sequential():
    spec = ExperimentSpec(
        method="fedavg",
        dataset="cifar10_like",
        model_family="cnn",
        num_devices=4,
        num_samples=120,
        rounds=1,
        seed=1,
    )
    server = build_experiment(spec)
    assert server.batched_trainer is None  # silently sequential, not an error


def test_mlp_on_image_data_batches():
    # build_model fronts the MLP with Flatten on (C, H, W) data; the engine
    # must accept that stack and match the sequential run.
    image = dict(
        dataset="cifar10_like", num_devices=6, num_samples=240, rounds=1, seed=1
    )
    auto = run_experiment(ExperimentSpec(method="fedavg", **image))
    off = run_experiment(
        ExperimentSpec(method="fedavg", **image, device_batching="off")
    )
    np.testing.assert_allclose(
        auto.final_weights, off.final_weights, rtol=1e-12, atol=1e-12
    )


def test_spec_rejects_unknown_mode():
    with pytest.raises(ValueError, match="device_batching"):
        ExperimentSpec(method="fedavg", **BASE, device_batching="sometimes")


def test_config_records_non_default_mode_only():
    auto, off = _pair(method="fedavg")
    assert "device_batching" not in auto.config
    assert off.config["device_batching"] == "off"


def test_sweepable_axis():
    from repro.campaign import sweep

    specs = sweep(
        ExperimentSpec(method="fedavg", **BASE),
        grid={"device_batching": ["auto", "off"]},
    )
    assert [s.device_batching for s in specs] == ["auto", "off"]
    accs = [run_experiment(s).final_accuracy for s in specs]
    assert accs[0] == accs[1]


GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "golden"


def test_golden_fedavg_within_tolerance_under_auto():
    """Goldens are pinned on the sequential path; ``"auto"`` must stay
    within the documented 1e-12 of them (equal on bitwise platforms)."""
    gold = json.loads((GOLDEN_DIR / "fedavg.json").read_text())
    result = run_experiment(
        ExperimentSpec(**{**gold["spec"], "device_batching": "auto"})
    )
    assert math.isclose(
        float(result.final_weights.sum()),
        gold["final_weights_sum"],
        rel_tol=1e-9,
    )
