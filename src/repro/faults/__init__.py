"""Fault injection and the robustness scenario axis.

See :mod:`repro.faults.model` for the failure modes and
:mod:`repro.faults.registry` for the named presets the
``ExperimentSpec.faults`` field sweeps over.
"""

from repro.faults.model import (
    ATTACKS,
    ByzantineFaults,
    CompoundFaults,
    CrashFaults,
    FaultModel,
    NoFaults,
    RoundEffects,
    StragglerFaults,
)
from repro.faults.registry import FAULT_MODELS, make_fault_model, register_fault_model

__all__ = [
    "ATTACKS",
    "FaultModel",
    "RoundEffects",
    "NoFaults",
    "CrashFaults",
    "StragglerFaults",
    "ByzantineFaults",
    "CompoundFaults",
    "FAULT_MODELS",
    "register_fault_model",
    "make_fault_model",
]
