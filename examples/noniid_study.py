#!/usr/bin/env python
"""Non-IID study: label skew, the Eq. (4) divergence, and what ring
communication buys back.

For a range of Dirichlet concentrations beta this script reports

* the label divergence D of Eq. (4) across device shards,
* mean per-device model accuracy with and without ring communication
  (the paper's Observation 1 / Figure 2 proxy), and
* FedHiSyn vs FedAvg final accuracy under the same split.

Run:  python examples/noniid_study.py
"""

import numpy as np

from repro.analysis.divergence import label_divergence
from repro.analysis.observations import communication_mode_experiment
from repro.campaign import Campaign, sweep
from repro.datasets import dirichlet_partition, label_distribution, make_dataset, train_test_split
from repro.device import LocalTrainer, make_fleet
from repro.experiments import ExperimentSpec, build_model
from repro.nn.serialization import get_flat_params

BETAS = (100.0, 0.8, 0.3, 0.1)


def main() -> None:
    num_devices = 16
    ds = make_dataset("cifar10_like", num_samples=1500, seed=0)
    train_set, test_set = train_test_split(ds, 0.2, seed=1)

    # Full frameworks under the same split statistics, as one campaign:
    # a beta x method grid sharing every other knob.
    base = ExperimentSpec(
        method="fedavg", dataset="cifar10_like", num_samples=1500,
        num_devices=num_devices, partition="dirichlet",
        rounds=10, local_epochs=1, model_family="mlp", seed=5,
    )
    specs = sweep(base, {"beta": list(BETAS), "method": ["fedavg", "fedhisyn"]},
                  method_kwargs={"fedhisyn": {"num_classes": 4}})
    campaign = Campaign(specs).run()
    final = {(e.spec.beta, e.spec.method): e.result.final_accuracy
             for e in campaign}

    print(f"{'beta':>6s}{'Eq.4 D':>9s}{'no-comm':>9s}{'ring':>9s}"
          f"{'fedavg':>9s}{'fedhisyn':>10s}")
    for beta in BETAS:
        parts = dirichlet_partition(train_set, num_devices, beta=beta, seed=2)
        div = label_divergence(label_distribution(train_set, parts))

        # Observation 1: decentralized device accuracy with/without ring.
        model = build_model(test_set, "mlp", "small", seed=3)
        trainer = LocalTrainer(model, lr=0.1, batch_size=50, seed=4)
        devices = make_fleet(train_set, parts, np.ones(num_devices), trainer)
        w0 = get_flat_params(model)
        none = communication_mode_experiment(
            "none", devices, test_set, w0, rounds=10)
        ring = communication_mode_experiment(
            "ring", devices, test_set, w0, rounds=10)

        print(f"{beta:>6.1f}{div:>9.2f}{none.final:>9.3f}{ring.final:>9.3f}"
              f"{final[(beta, 'fedavg')]:>9.3f}{final[(beta, 'fedhisyn')]:>10.3f}")

    print(
        "\nReading: as beta falls, shards drift from the global label"
        "\ndistribution (D grows) and isolated training collapses; ring"
        "\ncommunication recovers most of the loss, and the full framework"
        "\n(ring + periodic server sync) recovers the rest."
    )


if __name__ == "__main__":
    main()
