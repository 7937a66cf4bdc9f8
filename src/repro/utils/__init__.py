"""Shared utilities: seeded RNG management, configuration, logging, tables."""

from repro.utils.rng import SeedSequenceFactory, as_generator, spawn_generators
from repro.utils.config import freeze, validate_fraction, validate_positive
from repro.utils.registry import Entry, Registry

__all__ = [
    "SeedSequenceFactory",
    "as_generator",
    "spawn_generators",
    "freeze",
    "validate_fraction",
    "validate_positive",
    "Entry",
    "Registry",
]
