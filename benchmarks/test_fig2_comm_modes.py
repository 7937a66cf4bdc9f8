"""Figure 2: influence of device-to-device communication on model accuracy.

Five modes on homogeneous devices (no server): no communication, random
communication (direct / averaged), ring communication (direct / averaged),
on CIFAR10-role data under IID and Dirichlet(0.3).  Reported value: mean
overall-test accuracy of the per-device models — the paper's proxy for the
Eq. (4) divergence.

Shape targets: any communication beats none by a wide margin in both
distributions; ring-based communication is at least as good as random.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit
from repro.analysis.observations import COMMUNICATION_MODES, communication_mode_experiment
from repro.datasets import dirichlet_partition, iid_partition, make_dataset, train_test_split
from repro.device import LocalTrainer, make_fleet
from repro.experiments import build_model
from repro.nn.serialization import get_flat_params
from repro.utils.tables import format_table


def run_fig2(scale):
    ds = make_dataset("cifar10_like", num_samples=scale.num_samples, seed=0)
    train_set, test_set = train_test_split(ds, 0.2, seed=1)
    model = build_model(test_set, "mlp", "small", seed=2)
    trainer = LocalTrainer(model, lr=0.1, batch_size=50, seed=3)
    w0 = get_flat_params(model)
    rounds = 2 * scale.num_devices  # let ring chains close at least twice

    table = {}
    for setting, parts in (
        ("IID", iid_partition(train_set, scale.num_devices, seed=4)),
        ("Dir(0.3)", dirichlet_partition(train_set, scale.num_devices, beta=0.3, seed=4)),
    ):
        devices = make_fleet(train_set, parts, np.ones(scale.num_devices), trainer)
        for mode in COMMUNICATION_MODES:
            res = communication_mode_experiment(
                mode, devices, test_set, w0, rounds=rounds,
                epochs_per_round=scale.local_epochs, seed=5,
                eval_every=max(1, rounds // 5),
            )
            table[(setting, mode)] = res.final
    return table


def test_fig2_communication_modes(benchmark, scale):
    table = benchmark.pedantic(run_fig2, args=(scale,), rounds=1, iterations=1)
    rows = [
        [mode] + [f"{table[(s, mode)]:.3f}" for s in ("IID", "Dir(0.3)")]
        for mode in COMMUNICATION_MODES
    ]
    emit(
        "Figure 2 — mean device-model accuracy by communication mode "
        "(cifar10_like)",
        format_table(["mode", "IID", "Dir(0.3)"], rows),
    )
    for setting in ("IID", "Dir(0.3)"):
        none = table[(setting, "none")]
        for mode in ("random", "ring"):
            assert table[(setting, mode)] > none, (
                f"{mode} should beat no-communication under {setting}"
            )
