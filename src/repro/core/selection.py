"""Device-selection strategies.

The paper's Section 2.2 surveys selection-based answers to resource
heterogeneity — FedCS picks devices with sufficient compute, Oort favours
"excellent" devices — and argues they shrink the participant pool and lose
the data held by slow devices.  This module implements those strategies as
pluggable policies so the claim is testable against FedHiSyn's
keep-everyone-busy design (the ``selection`` ablation bench).

A policy maps (round index, fleet, rng) to the participating device *ids*,
read off the population arrays (``fleet.device_ids`` / ``unit_times`` /
``num_samples``) — it never touches a per-device object, so selecting from
a million devices materializes nothing.  The order of the returned array
is the participant order.  :class:`~repro.core.server.FederatedServer`
draws :func:`bernoulli_ids` (the paper's per-device participation
probability) when no policy is installed.
"""

from __future__ import annotations

import numpy as np

from repro.device.fleet import DeviceFleet
from repro.utils.config import validate_fraction
from repro.utils.registry import Registry

__all__ = [
    "SelectionPolicy",
    "BernoulliSelection",
    "FastestSelection",
    "DataSizeSelection",
    "SELECTION_POLICIES",
    "bernoulli_ids",
    "make_policy",
]


def bernoulli_ids(
    fleet: DeviceFleet, p: float, rng: np.random.Generator
) -> np.ndarray:
    """Bernoulli(``p``) draw over device ids, at least one.  The one place
    for the mask, the empty-draw fallback and their rng consumption order —
    shared by the server's default sampling, the async cohort draw and
    :class:`BernoulliSelection`."""
    if p >= 1.0:
        return fleet.device_ids
    ids = np.flatnonzero(rng.random(len(fleet)) < p)
    if not len(ids):
        ids = np.array([int(rng.integers(len(fleet)))], dtype=np.intp)
    return ids


#: ``ExperimentSpec.selection`` and the CLI's ``--selection`` /
#: ``list selections`` read from it (the shared
#: :class:`~repro.utils.registry.Registry` contract).
SELECTION_POLICIES = Registry("selection policy")


class SelectionPolicy:
    """Interface: pick this round's participant ids (never empty)."""

    def select(
        self,
        round_idx: int,
        fleet: DeviceFleet,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Intp id array of the participants, in participant order."""
        raise NotImplementedError

    @property
    def expected_fraction(self) -> float | None:
        """Expected fraction of the fleet participating per round.

        The server normalizes transfer costs by the transfers of one FedAvg
        round with this many participants (the Table 1 denominator), so a
        policy should say how many devices it typically admits.  ``None``
        (the default) makes the server fall back to its configured
        participation.
        """
        return None


@SELECTION_POLICIES.register("bernoulli")
class BernoulliSelection(SelectionPolicy):
    """The paper's setting: each device joins with probability ``p``."""

    def __init__(self, participation: float) -> None:
        validate_fraction(participation, "participation")
        self.participation = participation

    @property
    def expected_fraction(self) -> float:
        return self.participation

    def select(self, round_idx, fleet, rng):
        return bernoulli_ids(fleet, self.participation, rng)


@SELECTION_POLICIES.register("fastest")
class FastestSelection(SelectionPolicy):
    """FedCS-style: take the ``fraction`` of devices with the smallest unit
    time — maximal throughput, but slow devices' data never participates."""

    def __init__(self, fraction: float) -> None:
        validate_fraction(fraction, "fraction")
        self.fraction = fraction

    @property
    def expected_fraction(self) -> float:
        return self.fraction

    def select(self, round_idx, fleet, rng):
        k = max(1, int(round(self.fraction * len(fleet))))
        # Ranked (unit time, then id) order is the participant order — the
        # aggregation sums depend on it, so the ids are not re-sorted.
        return np.lexsort((fleet.device_ids, fleet.unit_times))[:k]


@SELECTION_POLICIES.register("datasize")
class DataSizeSelection(SelectionPolicy):
    """Oort-flavoured utility sampling: inclusion probability proportional
    to the shard size (more data = more useful update), ``fraction`` of the
    fleet per round, without replacement."""

    def __init__(self, fraction: float) -> None:
        validate_fraction(fraction, "fraction")
        self.fraction = fraction

    @property
    def expected_fraction(self) -> float:
        return self.fraction

    def select(self, round_idx, fleet, rng):
        n = len(fleet)
        k = max(1, int(round(self.fraction * n)))
        sizes = fleet.num_samples.astype(np.float64)
        idx = rng.choice(n, size=min(k, n), replace=False, p=sizes / sizes.sum())
        return np.sort(idx)


def make_policy(name: str, fraction: float) -> SelectionPolicy:
    """Policy factory: 'bernoulli' (paper default), 'fastest', 'datasize'."""
    return SELECTION_POLICIES.entry(name).factory(fraction)
