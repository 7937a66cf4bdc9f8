"""Figure 4: influence of the number of capacity clusters on decentralized
ring training with heterogeneous resources.

The paper clusters 100 devices into {1, 2, 10, 30} classes and reports the
mean accuracy of the fastest class: few clusters mix speeds (stale
hand-offs, slow learning), many clusters starve each ring of data — the
curve is unimodal.  Quick scale uses K in {1, 2, 5, 10} over 20 devices.
"""

from __future__ import annotations

from benchmarks.conftest import emit
from repro.analysis.observations import cluster_count_experiment
from repro.datasets import dirichlet_partition, make_dataset, train_test_split
from repro.device import LocalTrainer, make_fleet, unit_times_from_ratio
from repro.experiments import build_model
from repro.nn.serialization import get_flat_params
from repro.utils.tables import format_table


def cluster_counts(scale):
    if scale.name == "paper":
        return (1, 2, 10, 30)
    return (1, 2, 5, 10)


def run_fig4(scale):
    ds = make_dataset("cifar10_like", num_samples=scale.num_samples, seed=0)
    train_set, test_set = train_test_split(ds, 0.2, seed=1)
    parts = dirichlet_partition(train_set, scale.num_devices, beta=0.3, seed=2)
    model = build_model(test_set, "mlp", "small", seed=3)
    trainer = LocalTrainer(model, lr=0.1, batch_size=50, seed=4)
    times = unit_times_from_ratio(scale.num_devices, 10.0, seed=5)
    devices = make_fleet(train_set, parts, times, trainer)
    w0 = get_flat_params(model)

    table = {}
    for k in cluster_counts(scale):
        res = cluster_count_experiment(
            k, devices, test_set, w0, rounds=scale.rounds_hard,
            epochs_per_unit=scale.local_epochs,
        )
        table[k] = res.round_accuracies
    return table


def test_fig4_cluster_count(benchmark, scale):
    table = benchmark.pedantic(run_fig4, args=(scale,), rounds=1, iterations=1)
    ks = sorted(table)
    rows = [
        [f"K={k}", f"{table[k][0]:.3f}", f"{table[k][len(table[k]) // 2]:.3f}",
         f"{table[k][-1]:.3f}"]
        for k in ks
    ]
    emit(
        "Figure 4 — fastest-class mean accuracy vs number of clusters "
        "(cifar10_like, Dir(0.3), H=10)",
        format_table(["clusters", "early", "mid", "final"], rows),
    )
    finals = {k: table[k][-1] for k in ks}
    best_k = max(finals, key=finals.get)
    # Unimodal shape: the best K is interior — neither the single mixed
    # ring nor the most fragmented clustering.
    assert best_k not in (ks[0], ks[-1]), (
        f"expected an interior optimum, got K={best_k}: {finals}"
    )
