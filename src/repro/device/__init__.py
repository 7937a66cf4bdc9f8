"""Device substrate: local training and resource heterogeneity.

A federated *device* couples a data shard with a compute profile.  Compute
capacity is expressed in **virtual time per local-training unit** (one unit
= ``local_epochs`` passes over the shard, the paper's 5).  The paper's
settings map directly:

* "number of epochs ... randomly distributed in [5, 50]" →
  :func:`~repro.device.heterogeneity.sample_unit_counts` with counts 1..10,
* "local training ... differs by a maximum of 10 times" → heterogeneity
  ratio ``H = t_max / t_min = 10``
  (:func:`~repro.device.heterogeneity.heterogeneity_ratio`).
"""

from repro.device.device import LocalTrainer
from repro.device.fleet import DeviceFleet, FleetState, make_fleet
from repro.device.heterogeneity import (
    heterogeneity_ratio,
    sample_unit_counts,
    unit_times_from_counts,
    unit_times_from_ratio,
)

__all__ = [
    "DeviceFleet",
    "FleetState",
    "LocalTrainer",
    "make_fleet",
    "sample_unit_counts",
    "unit_times_from_counts",
    "unit_times_from_ratio",
    "heterogeneity_ratio",
]
