"""Pluggable environment layer: networks, availability, named presets.

One import surface for everything that describes the simulated world
outside the algorithm::

    from repro.env import Environment, make_environment

    srv = FedAvgServer(devices, test_set, env=make_environment("flaky_mobile"))

See :mod:`repro.env.environment` for the metering/clock contract and
:mod:`repro.env.registry` for the preset catalogue.
"""

from repro.env.availability import (
    AlwaysOn,
    AvailabilityModel,
    BernoulliAvailability,
    CapacityCorrelatedAvailability,
    DiurnalAvailability,
    TraceAvailability,
)
from repro.env.environment import Environment
from repro.env.network import SERVER, NetworkModel
from repro.env.registry import (
    AVAILABILITY_KINDS,
    ENVIRONMENTS,
    make_environment,
    register_environment,
)

__all__ = [
    "SERVER",
    "NetworkModel",
    "AvailabilityModel",
    "AlwaysOn",
    "BernoulliAvailability",
    "TraceAvailability",
    "CapacityCorrelatedAvailability",
    "DiurnalAvailability",
    "Environment",
    "ENVIRONMENTS",
    "register_environment",
    "make_environment",
    "AVAILABILITY_KINDS",
]
