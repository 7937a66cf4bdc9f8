"""Figure 3: impact of the ring ordering under heterogeneous resources.

Decentralized single-ring training with devices ordered randomly,
small-to-large or large-to-small by local-training time, on CIFAR10-role
data, IID and Dirichlet(0.3).

Shape targets: the two time-sorted orderings outperform (or match) the
random ring; the Non-IID final accuracy trails the IID one (the paper
attributes the gap to catastrophic forgetting, its motivation for keeping
a central server).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit
from repro.analysis.observations import ring_order_experiment
from repro.datasets import dirichlet_partition, iid_partition, make_dataset, train_test_split
from repro.device import LocalTrainer, make_fleet, unit_times_from_ratio
from repro.experiments import build_model
from repro.nn.serialization import get_flat_params
from repro.utils.tables import format_table

ORDERS = ("random", "small_to_large", "large_to_small")


def run_fig3(scale):
    ds = make_dataset("cifar10_like", num_samples=scale.num_samples, seed=0)
    train_set, test_set = train_test_split(ds, 0.2, seed=1)
    model = build_model(test_set, "mlp", "small", seed=2)
    trainer = LocalTrainer(model, lr=0.1, batch_size=50, seed=3)
    w0 = get_flat_params(model)
    rounds = scale.rounds_hard

    table = {}
    for setting, parts in (
        ("IID", iid_partition(train_set, scale.num_devices, seed=4)),
        ("Dir(0.3)", dirichlet_partition(train_set, scale.num_devices, beta=0.3, seed=4)),
    ):
        for order in ORDERS:
            finals = []
            for seed in scale.seeds:
                times = unit_times_from_ratio(scale.num_devices, 10.0, seed=10 + seed)
                devices = make_fleet(train_set, parts, times, trainer)
                res = ring_order_experiment(
                    order, devices, test_set, w0, rounds=rounds,
                    epochs_per_unit=scale.local_epochs, seed=20 + seed,
                )
                finals.append(res.final)
            table[(setting, order)] = float(np.mean(finals))
    return table


def test_fig3_ring_order(benchmark, scale):
    table = benchmark.pedantic(run_fig3, args=(scale,), rounds=1, iterations=1)
    rows = [
        [order] + [f"{table[(s, order)]:.3f}" for s in ("IID", "Dir(0.3)")]
        for order in ORDERS
    ]
    emit(
        "Figure 3 — mean device accuracy by ring ordering (cifar10_like, H=10)",
        format_table(["ordering", "IID", "Dir(0.3)"], rows),
    )
    for setting in ("IID", "Dir(0.3)"):
        best_sorted = max(
            table[(setting, "small_to_large")], table[(setting, "large_to_small")]
        )
        assert best_sorted >= table[(setting, "random")] - 0.05, (
            f"sorted orderings should not lose badly to random under {setting}"
        )
