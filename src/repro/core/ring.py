"""Ring-topology construction (Section 4.1, Observation 2).

A ring is an ordered list of device ids; each device forwards its trained
model to the next position, and the last wraps to the first ("the device
with the longest local training time is connected to the device with the
shortest").

Orderings:

* ``small_to_large`` — ascending local-training time (the paper's choice),
* ``large_to_small`` — descending (works equally well per Figure 3),
* ``random`` — the strawman that Figure 3 shows losing badly.

When link delays differ, the ordering metric generalizes to
``M_i = t_i + D_{i,i+1}`` (Eq. 5, :func:`build_ring_eq5`); with the
paper's equal-delay simplification the metric reduces to ``t_i`` and is
what's implemented on the default path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.rng import as_generator

__all__ = ["RING_ORDERS", "build_ring", "build_rings", "build_ring_eq5"]

RING_ORDERS = ("small_to_large", "large_to_small", "random")


def build_ring(
    device_ids: Sequence[int],
    unit_times: Sequence[float],
    order: str = "small_to_large",
    seed: int | np.random.Generator | None = 0,
) -> list[int]:
    """Order ``device_ids`` into a ring by their ``unit_times``.

    Ties break by device id so the result is deterministic.  A singleton
    (or empty) input is returned as-is — a one-device "ring" trains alone,
    which Algorithm 1 handles via Eq. (7).
    """
    ids = list(device_ids)
    times = np.asarray(unit_times, dtype=np.float64)
    if len(ids) != times.size:
        raise ValueError(
            f"device_ids ({len(ids)}) and unit_times ({times.size}) disagree"
        )
    if len(ids) <= 1:
        return ids
    if order == "small_to_large":
        ranked = sorted(range(len(ids)), key=lambda i: (times[i], ids[i]))
    elif order == "large_to_small":
        ranked = sorted(range(len(ids)), key=lambda i: (-times[i], ids[i]))
    elif order == "random":
        rng = as_generator(seed)
        ranked = list(rng.permutation(len(ids)))
    else:
        raise ValueError(f"order must be one of {RING_ORDERS}, got {order!r}")
    return [ids[i] for i in ranked]


def build_ring_eq5(
    device_ids: Sequence[int],
    unit_times: Sequence[float],
    network,
) -> list[int]:
    """Ring construction under the *full* Eq. (5) metric
    ``M_i = t_i + D_{i,i+1}``, with ``D`` the one-model hop time of
    ``network`` (a :class:`~repro.env.network.NetworkModel`).

    The paper simplifies to equal link delays (where the metric reduces to
    ``t_i`` and :func:`build_ring` applies); with heterogeneous delays the
    successor choice feeds back into the metric, so an exact minimum is a
    TSP.  This implements the natural greedy heuristic: start at the
    fastest device, then repeatedly append the unvisited device minimizing
    ``transfer_time(current, next) + t_next`` — the virtual time until the
    forwarded model has been retrained at the next hop.  Ties break by
    device id.
    """
    ids = list(device_ids)
    times = np.asarray(unit_times, dtype=np.float64)
    if len(ids) != times.size:
        raise ValueError("device_ids and unit_times disagree in length")
    if len(ids) <= 1:
        return ids
    remaining = set(range(len(ids)))
    current = int(np.argmin(times))
    order = [current]
    remaining.discard(current)
    while remaining:
        cur = ids[current]
        current = min(
            remaining,
            key=lambda j: (network.transfer_time(cur, ids[j], 1.0) + times[j], ids[j]),
        )
        order.append(current)
        remaining.discard(current)
    return [ids[i] for i in order]


def build_rings(
    classes: Sequence[np.ndarray],
    device_ids: Sequence[int],
    unit_times: Sequence[float],
    order: str = "small_to_large",
    seed: int | np.random.Generator | None = 0,
) -> list[list[int]]:
    """One ring per capacity class (Algorithm 1 lines 5-6).

    ``classes`` holds positions into ``device_ids``/``unit_times`` as
    produced by :func:`repro.core.clustering.cluster_by_capacity`.
    """
    ids = list(device_ids)
    times = np.asarray(unit_times, dtype=np.float64)
    if len(ids) != times.size:
        raise ValueError("device_ids and unit_times disagree in length")
    rng = as_generator(seed)
    rings = []
    for cls in classes:
        cls = np.asarray(cls, dtype=np.intp)
        rings.append(
            build_ring(
                [ids[i] for i in cls],
                times[cls],
                order=order,
                seed=rng,
            )
        )
    return rings
