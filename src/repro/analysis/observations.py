"""The motivating experiments of Section 3.2 (Figures 2, 3 and 4).

These are *decentralized* experiments — no server aggregation — measuring
the mean overall-test accuracy of the per-device models, the paper's proxy
for the divergence D of Eq. (4):

* **Figure 2** — five device-communication modes on homogeneous devices:
  ``none``, ``random``, ``random_avg``, ``ring``, ``ring_avg``
  (``_avg`` = average the received model with the own model before
  training; otherwise train the received model directly).
* **Figure 3** — ring orderings under heterogeneous resources:
  ``random``, ``small_to_large``, ``large_to_small``.
* **Figure 4** — number of capacity clusters under heterogeneous
  resources; reports the mean accuracy of the *fastest* class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.clustering import cluster_by_capacity
from repro.core.ring import build_ring, build_rings
from repro.datasets.core import ClassificationDataset
from repro.device.batched import run_units
from repro.device.fleet import DeviceFleet
from repro.nn.serialization import set_flat_params
from repro.simulation.engine import RingRoundEngine
from repro.utils.rng import SeedSequenceFactory

__all__ = [
    "COMMUNICATION_MODES",
    "ObservationResult",
    "communication_mode_experiment",
    "ring_order_experiment",
    "cluster_count_experiment",
]

COMMUNICATION_MODES = ("none", "random", "random_avg", "ring", "ring_avg")


@dataclass
class ObservationResult:
    """Mean device-model accuracy per round, plus the setting label."""

    label: str
    round_accuracies: list[float] = field(default_factory=list)

    @property
    def final(self) -> float:
        if not self.round_accuracies:
            raise ValueError("empty result")
        return self.round_accuracies[-1]


def _mean_device_accuracy(
    fleet: DeviceFleet, ids: np.ndarray, test_set: ClassificationDataset
) -> float:
    model = fleet.trainer.model
    accs = []
    for dev_id in ids.tolist():
        set_flat_params(model, fleet.weights_row(dev_id))
        accs.append(model.accuracy(test_set.x, test_set.y))
    return float(np.mean(accs))


def communication_mode_experiment(
    mode: str,
    devices: DeviceFleet,
    test_set: ClassificationDataset,
    initial_weights: np.ndarray,
    rounds: int = 10,
    epochs_per_round: int = 1,
    seed: int = 0,
    eval_every: int = 1,
) -> ObservationResult:
    """Figure 2: one decentralized run under the given communication mode.

    Devices are assumed homogeneous (the paper's setting).  Each round every
    device trains once; then, depending on the mode, models move between
    devices (ring neighbour or a random permutation partner) and are either
    used directly or averaged with the recipient's own model.
    """
    if mode not in COMMUNICATION_MODES:
        raise ValueError(f"mode must be one of {COMMUNICATION_MODES}, got {mode!r}")
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    seeds = SeedSequenceFactory(seed)
    n = len(devices)
    ids = devices.device_ids
    # Every device is in every round: one registration gives each device
    # its fleet row for the whole run.
    devices.round_matrix(ids)
    weights = [initial_weights.copy() for _ in range(n)]
    result = ObservationResult(label=mode)

    for r in range(rounds):
        # Local training step for every device on its current model: one
        # scalar wave, so the figure never depends on the BLAS build.
        trained = np.empty((n, devices.dim))
        run_units(None, devices, ids, epochs_per_round, r, weights, trained)
        weights = list(trained)
        # Communication step.
        if mode != "none":
            if mode.startswith("ring"):
                # neighbour i -> i+1 (fixed ring; homogeneous order = id).
                incoming = [weights[(i - 1) % n] for i in range(n)]
            else:
                # fresh random permutation partner each round
                perm = seeds.generator(r).permutation(n)
                incoming = [weights[perm[i]] for i in range(n)]
            if mode.endswith("_avg"):
                weights = [
                    0.5 * (weights[i] + incoming[i]) for i in range(n)
                ]
            else:
                weights = [incoming[i].copy() for i in range(n)]
        if (r + 1) % eval_every == 0 or r == rounds - 1:
            for i in range(n):
                devices.set_weights(i, weights[i])
            result.round_accuracies.append(
                _mean_device_accuracy(devices, ids, test_set)
            )
    return result


def ring_order_experiment(
    order: str,
    devices: DeviceFleet,
    test_set: ClassificationDataset,
    initial_weights: np.ndarray,
    rounds: int = 10,
    epochs_per_unit: int = 1,
    seed: int = 0,
) -> ObservationResult:
    """Figure 3: decentralized single-ring training under an ordering.

    All devices form ONE ring (no clustering, no server); each round lasts
    the slowest device's unit time, so fast devices complete several hops.
    Devices carry their own models across rounds (decentralized — no
    periodic re-broadcast).
    """
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    engine = RingRoundEngine(devices, epochs_per_unit=epochs_per_unit)
    times = devices.unit_times
    ring = build_ring(devices.device_ids.tolist(), times, order=order, seed=seed)
    duration = float(times.max())
    result = ObservationResult(label=order)
    ids = devices.device_ids
    # One registration for the whole run: the engine's fleet rows are the
    # devices' models, carried from round to round.
    devices.round_matrix(ids)
    current = {i: initial_weights.copy() for i in ids.tolist()}
    for r in range(rounds):
        engine.run_round([ring], current, duration, r)
        current = {i: devices.weights_row(i) for i in ids.tolist()}
        result.round_accuracies.append(
            _mean_device_accuracy(devices, ids, test_set)
        )
    return result


def cluster_count_experiment(
    num_clusters: int,
    devices: DeviceFleet,
    test_set: ClassificationDataset,
    initial_weights: np.ndarray,
    rounds: int = 10,
    epochs_per_unit: int = 1,
    seed: int = 0,
) -> ObservationResult:
    """Figure 4: cluster into ``num_clusters`` capacity classes, ring per
    class, decentralized training; report the fastest class's mean accuracy
    per round.  Devices carry their models across rounds."""
    if rounds <= 0:
        raise ValueError("rounds must be positive")
    times = devices.unit_times
    classes = cluster_by_capacity(times, num_clusters)
    rings = build_rings(classes, devices.device_ids.tolist(), times)
    fastest = devices.device_ids[classes[0]]
    engine = RingRoundEngine(devices, epochs_per_unit=epochs_per_unit)
    duration = float(times.max())
    result = ObservationResult(label=f"K={num_clusters}")
    devices.round_matrix(devices.device_ids)  # one registration, as above
    ids = devices.device_ids.tolist()
    current = {i: initial_weights.copy() for i in ids}
    for r in range(rounds):
        engine.run_round(rings, current, duration, r)
        current = {i: devices.weights_row(i) for i in ids}
        result.round_accuracies.append(
            _mean_device_accuracy(devices, fastest, test_set)
        )
    return result
