"""Named environment presets: sweepable world models.

Every preset is a factory keyed by a short name — ``ideal`` is the paper's
semantics, the others are progressively harsher worlds.  Presets accept
keyword overrides (the :class:`ExperimentSpec.env_kwargs` /
``--drop-prob`` path), so ``make_environment("wan", drop_prob=0.1)`` is a
lossier WAN without defining a new preset, and a campaign grid can sweep
``env`` exactly like any other spec field.

Override keys understood by every preset:

``latency``, ``bandwidth``, ``peer_latency``, ``peer_bandwidth``,
``latency_spread``, ``bandwidth_spread``, ``drop_prob``, ``seed``
    Network shape — see :mod:`repro.env.network`.  Latencies are in
    virtual-time units (a median device's training unit is ~0.5);
    bandwidths in models per unit time.
``availability``
    ``"always"`` | ``"bernoulli"`` | ``"trace"`` | ``"capacity"`` |
    ``"diurnal"``.
``up_prob``, ``slow_penalty``, ``traces``, ``default_up``, ``period``,
``min_up``, ``max_up``, ``phase``
    Availability-model parameters (see :mod:`repro.env.availability`).
"""

from __future__ import annotations

import math
from typing import Any

from repro.env.availability import (
    AlwaysOn,
    AvailabilityModel,
    BernoulliAvailability,
    CapacityCorrelatedAvailability,
    DiurnalAvailability,
    TraceAvailability,
)
from repro.env.environment import Environment
from repro.env.network import NetworkModel
from repro.utils.registry import Registry

__all__ = [
    "ENVIRONMENTS",
    "register_environment",
    "make_environment",
    "AVAILABILITY_KINDS",
]

AVAILABILITY_KINDS = ("always", "bernoulli", "trace", "capacity", "diurnal")

#: One :class:`~repro.utils.registry.Registry` — see that module for the
#: contract shared with every other named axis.
ENVIRONMENTS = Registry("environment", kwargs_field="env_kwargs")
register_environment = ENVIRONMENTS.register
make_environment = ENVIRONMENTS.make


# ----------------------------------------------------------------- builder


def _build(
    name: str,
    *,
    latency: float = 0.0,
    bandwidth: float = math.inf,
    peer_latency: float | None = None,
    peer_bandwidth: float | None = None,
    latency_spread: float = 0.0,
    bandwidth_spread: float = 0.0,
    drop_prob: float = 0.0,
    availability: str = "always",
    up_prob: float | None = None,
    slow_penalty: float | None = None,
    traces: dict | None = None,
    default_up: bool = True,
    period: float = 24.0,
    min_up: float = 0.15,
    max_up: float = 0.95,
    phase: float = 0.0,
    seed: int = 0,
) -> Environment:
    """Assemble an Environment from flat, JSON-safe keyword parameters."""
    network = NetworkModel(
        latency=latency,
        bandwidth=bandwidth,
        drop_prob=drop_prob,
        peer_latency=peer_latency,
        peer_bandwidth=peer_bandwidth,
        latency_spread=latency_spread,
        bandwidth_spread=bandwidth_spread,
        seed=seed,
    )
    avail: AvailabilityModel
    if availability == "always":
        avail = AlwaysOn()
    elif availability == "bernoulli":
        avail = BernoulliAvailability(0.9 if up_prob is None else up_prob)
    elif availability == "trace":
        avail = TraceAvailability(traces or {}, default=default_up)
    elif availability == "capacity":
        avail = CapacityCorrelatedAvailability(
            0.95 if up_prob is None else up_prob,
            0.4 if slow_penalty is None else slow_penalty,
        )
    elif availability == "diurnal":
        avail = DiurnalAvailability(
            period=period, min_up=min_up, max_up=max_up, phase=phase
        )
    else:
        raise TypeError(
            f"availability must be one of {AVAILABILITY_KINDS}, got {availability!r}"
        )
    return Environment(network, avail, name=name)


# ----------------------------------------------------------------- presets


@register_environment(
    "ideal", "paper semantics: instant lossless links, always-on devices"
)
def _ideal(**overrides: Any) -> Environment:
    return _build("ideal", **overrides)


@register_environment(
    "lan", "data-center floor: sub-unit latency, fat pipes, no loss"
)
def _lan(**overrides: Any) -> Environment:
    return _build("lan", **{"latency": 0.005, "bandwidth": 200.0, **overrides})


@register_environment(
    "wan", "cross-region links: tens-of-ms-scale latency spread, 1% loss"
)
def _wan(**overrides: Any) -> Environment:
    return _build(
        "wan",
        **{
            "latency": 0.05,
            "bandwidth": 20.0,
            "latency_spread": 0.5,
            "drop_prob": 0.01,
            **overrides,
        },
    )


@register_environment(
    "flaky_mobile",
    "cellular fleet: slow lossy links, slow devices churn out of rounds",
)
def _flaky_mobile(**overrides: Any) -> Environment:
    return _build(
        "flaky_mobile",
        **{
            "latency": 0.08,
            "bandwidth": 5.0,
            "latency_spread": 1.0,
            "bandwidth_spread": 0.5,
            "drop_prob": 0.05,
            "availability": "capacity",
            "up_prob": 0.9,
            "slow_penalty": 0.4,
            **overrides,
        },
    )


@register_environment(
    "satellite", "high-latency narrow uplink: big RTT dominates small models"
)
def _satellite(**overrides: Any) -> Environment:
    return _build(
        "satellite",
        **{"latency": 0.3, "bandwidth": 2.0, "drop_prob": 0.02, **overrides},
    )


@register_environment(
    "churn", "perfect network, unreliable fleet: 30% of devices offline per round"
)
def _churn(**overrides: Any) -> Environment:
    return _build(
        "churn", **{"availability": "bernoulli", "up_prob": 0.7, **overrides}
    )


@register_environment(
    "diurnal",
    "perfect network, day/night fleet: sinusoidal online probability",
)
def _diurnal(**overrides: Any) -> Environment:
    return _build("diurnal", **{"availability": "diurnal", **overrides})
