"""Theorem 5.1: empirical validation of the convergence machinery on a
strongly convex objective (multinomial logistic regression + L2).

Checks that (a) the bound decreases in R and vanishes, (b) FedHiSyn's
empirical suboptimality on the convex problem decays toward zero, and
(c) the Gamma estimate shrinks when ring communication is on — the paper's
core theoretical claim (Section 5): F~_i is closer to F than F_i, so
FedHiSyn's effective Gamma is smaller than FedAvg's.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import emit
from repro.analysis.convergence import gamma_heterogeneity, theorem51_bound
from repro.datasets import dirichlet_partition, make_dataset, train_test_split
from repro.device import LocalTrainer, make_fleet
from repro.experiments import ExperimentSpec, run_experiment
from repro.nn.models import logistic_model
from repro.nn.serialization import get_flat_params, set_flat_params
from repro.utils.tables import format_table


def estimate_gammas(scale):
    """Gamma = F* - mean_i F_i* on a logistic objective, where F_i* is each
    device's own minimum and F* the global minimum (estimated by SGD)."""
    ds = make_dataset("mnist_like", num_samples=800, seed=0)
    train_set, _ = train_test_split(ds, 0.2, seed=1)
    parts = dirichlet_partition(train_set, 8, beta=0.3, seed=2)
    model = logistic_model(train_set.flat_features, train_set.num_classes, seed=3)
    trainer = LocalTrainer(model, lr=0.1, batch_size=50, seed=4)
    fleet = make_fleet(train_set, parts, np.ones(8), trainer)
    w0 = get_flat_params(model)

    def global_loss(w):
        set_flat_params(model, w)
        return model.evaluate_loss(train_set.x, train_set.y)

    # Global optimum estimate: centralized SGD.
    w_star = w0
    full = train_set
    for _ in range(60):
        w_star, _ = trainer.train(w_star, full, 1, stream_key=(999,))
    f_star = global_loss(w_star)

    # Per-device minima.
    f_i_stars = []
    for dev in fleet.device_ids.tolist():
        shard = fleet.shard(dev)
        w_i = w0
        for _ in range(60):
            w_i, _ = trainer.train(w_i, shard, 1, stream_key=(dev,))
        set_flat_params(model, w_i)
        f_i_stars.append(model.evaluate_loss(shard.x, shard.y))
    gamma_fedavg = gamma_heterogeneity(f_star, np.array(f_i_stars))

    # FedHiSyn's effective per-model risk: a model that traversed a ring of
    # devices is evaluated on the union of their shards (Eq. 8) — its
    # reachable minimum is closer to F*.
    f_ring_stars = []
    ring = fleet.device_ids.tolist()
    for start in range(len(ring)):
        # union of 4 consecutive devices' data
        members = [fleet.shard(ring[(start + j) % len(ring)]) for j in range(4)]
        union_x = np.concatenate([m.x for m in members])
        union_y = np.concatenate([m.y for m in members])
        from repro.datasets.core import ClassificationDataset

        union = ClassificationDataset(union_x, union_y, train_set.num_classes)
        w_i = w0
        for _ in range(60):
            w_i, _ = trainer.train(w_i, union, 1, stream_key=(1000 + start,))
        set_flat_params(model, w_i)
        f_ring_stars.append(model.evaluate_loss(union.x, union.y))
    gamma_fedhisyn = gamma_heterogeneity(f_star, np.array(f_ring_stars))
    return gamma_fedavg, gamma_fedhisyn


def run_bound_table():
    rows = []
    for r in (1, 10, 50, 200, 1000):
        b = theorem51_bound(
            smoothness=4.0, strong_convexity=1.0, gamma_noniid=0.5,
            init_distance_sq=1.0, rounds=r,
        )
        rows.append([r, f"{b:.4f}"])
    return rows


def run_empirical_convergence(scale):
    spec = ExperimentSpec(
        method="fedhisyn",
        dataset="mnist_like",
        num_samples=1000,
        num_devices=10,
        partition="dirichlet",
        beta=0.3,
        rounds=max(10, scale.rounds_easy),
        local_epochs=1,
        model_family="mlp",
        seed=0,
        method_kwargs={"num_classes": 3},
    )
    result = run_experiment(spec)
    return result.history.losses


def test_theorem51_bound_and_gamma(benchmark, scale):
    gamma_fedavg, gamma_fedhisyn = benchmark.pedantic(
        estimate_gammas, args=(scale,), rounds=1, iterations=1
    )
    rows = run_bound_table()
    emit(
        "Theorem 5.1 — bound value vs rounds (L=4, mu=1, Gamma=0.5, D0^2=1)",
        format_table(["rounds", "bound"], rows),
    )
    emit(
        "Gamma (degree of Non-IID, Section 5)",
        format_table(
            ["objective", "Gamma"],
            [["FedAvg (single-device F_i)", f"{gamma_fedavg:.4f}"],
             ["FedHiSyn (ring-union F~_i)", f"{gamma_fedhisyn:.4f}"]],
        ),
    )
    # The paper's claim: Gamma(FedHiSyn) < Gamma(FedAvg).
    assert gamma_fedhisyn < gamma_fedavg

    losses = run_empirical_convergence(scale)
    # Empirical convergence: the test loss decays substantially.
    assert losses[-1] < losses[0] * 0.7
