"""Named fault-model presets: the sweepable robustness axis.

Every preset is a factory keyed by a short name in ``FAULT_MODELS`` and
accepts keyword overrides (the ``ExperimentSpec.fault_kwargs`` /
``--byzantine-frac`` path).

Override keys by preset:

``crash``
    ``crash_prob``, ``downtime``.
``straggler``
    ``straggle_prob``, ``tail_exponent``, ``max_slowdown``.
``byzantine``
    ``fraction``, ``attack`` (``sign_flip`` | ``gaussian`` | ``scaled``),
    ``scale``, ``sigma``.
``compound``
    All of the above (crash + straggler + byzantine active together,
    each dialed down from its solo-preset default).
"""

from __future__ import annotations

from typing import Any

from repro.faults.model import (
    ByzantineFaults,
    CompoundFaults,
    CrashFaults,
    FaultModel,
    NoFaults,
    StragglerFaults,
)
from repro.utils.registry import Registry

__all__ = ["FAULT_MODELS", "register_fault_model", "make_fault_model"]

#: One :class:`~repro.utils.registry.Registry` — see that module for the
#: contract shared with every other named axis.
FAULT_MODELS = Registry("fault model", kwargs_field="fault_kwargs")
register_fault_model = FAULT_MODELS.register
make_fault_model = FAULT_MODELS.make


# ----------------------------------------------------------------- presets


@register_fault_model("none", "fault-free world (the bit-identity fast path)")
def _none() -> FaultModel:
    return NoFaults()


@register_fault_model(
    "crash", "fail-stop crashes: mid-unit work loss, restart after downtime"
)
def _crash(**overrides: Any) -> FaultModel:
    return CrashFaults(**overrides)


@register_fault_model(
    "straggler", "heavy-tail (Pareto) slowdowns on a fraction of participants"
)
def _straggler(**overrides: Any) -> FaultModel:
    return StragglerFaults(**overrides)


@register_fault_model(
    "byzantine",
    "a fixed malicious fraction corrupts uploads (sign_flip/gaussian/scaled)",
)
def _byzantine(**overrides: Any) -> FaultModel:
    return ByzantineFaults(**overrides)


@register_fault_model(
    "compound", "crashes + stragglers + byzantine devices active together"
)
def _compound(
    crash_prob: float = 0.03,
    downtime: float = 1.0,
    straggle_prob: float = 0.1,
    tail_exponent: float = 1.5,
    max_slowdown: float = 25.0,
    fraction: float = 0.1,
    attack: str = "sign_flip",
    scale: float = 10.0,
    sigma: float = 1.0,
) -> FaultModel:
    return CompoundFaults(
        [
            CrashFaults(crash_prob=crash_prob, downtime=downtime),
            StragglerFaults(
                straggle_prob=straggle_prob,
                tail_exponent=tail_exponent,
                max_slowdown=max_slowdown,
            ),
            ByzantineFaults(
                fraction=fraction, attack=attack, scale=scale, sigma=sigma
            ),
        ]
    )
