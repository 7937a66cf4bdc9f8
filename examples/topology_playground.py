#!/usr/bin/env python
"""Topology playground: the low-level API behind FedHiSyn.

Builds a device fleet by hand, clusters it, constructs rings, runs one
event-driven ring round, and inspects what each device's model saw —
useful for understanding (and extending) the framework internals.

Run:  python examples/topology_playground.py
"""

import numpy as np

from repro.core.clustering import cluster_by_capacity
from repro.core.ring import build_rings
from repro.datasets import dirichlet_partition, make_dataset, train_test_split
from repro.device import LocalTrainer, make_fleet, unit_times_from_counts
from repro.device.heterogeneity import heterogeneity_ratio, sample_unit_counts
from repro.experiments import build_model
from repro.nn.serialization import get_flat_params, set_flat_params
from repro.simulation.engine import RingRoundEngine


def main() -> None:
    # --- substrate -------------------------------------------------------
    ds = make_dataset("mnist_like", num_samples=1200, seed=0)
    train_set, test_set = train_test_split(ds, 0.2, seed=1)
    parts = dirichlet_partition(train_set, 12, beta=0.3, seed=2)
    model = build_model(test_set, "mlp", "small", seed=3)
    trainer = LocalTrainer(model, lr=0.1, batch_size=50, seed=4)

    counts = sample_unit_counts(12, 1, 10, seed=5)  # units per round
    unit_times = unit_times_from_counts(counts)
    fleet = make_fleet(train_set, parts, unit_times, trainer)
    print(f"fleet of {fleet.num_devices} devices, H = "
          f"{heterogeneity_ratio(unit_times):.1f}")

    # --- the server's per-round steps, spelled out ------------------------
    ids = fleet.device_ids.tolist()
    classes = cluster_by_capacity(unit_times, k=3)
    print("\ncapacity classes (fastest first):")
    for i, cls in enumerate(classes):
        print(f"  class {i}: devices {[ids[j] for j in cls]}, "
              f"unit times {np.round(unit_times[cls], 2).tolist()}")

    rings = build_rings(classes, ids, unit_times, order="small_to_large")
    print(f"\nrings: {rings}")

    # The round's weight rows: ring members train into the fleet's arena.
    fleet.round_matrix(fleet.device_ids)
    engine = RingRoundEngine(fleet, epochs_per_unit=1)
    w0 = get_flat_params(model)
    duration = float(unit_times.max())
    stats = engine.run_round(rings, w0, duration, round_idx=0)

    print(f"\nround of duration {duration:.2f}:")
    print(f"  peer model hops: {stats.peer_sends}")
    for dev in ids:
        units = stats.units_completed[dev]
        set_flat_params(model, fleet.weights_row(dev))
        acc = model.accuracy(test_set.x, test_set.y)
        print(f"  device {dev:2d}: {units:2d} units "
              f"(t={unit_times[dev]:.2f}) -> upload accuracy {acc:.3f}")

    agg = fleet.stack_weights(fleet.device_ids).mean(axis=0)
    set_flat_params(model, agg)
    print(f"\naggregated global model accuracy after one round: "
          f"{model.accuracy(test_set.x, test_set.y):.3f}")


if __name__ == "__main__":
    main()
