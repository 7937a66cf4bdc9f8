"""Pluggable fault models: what goes wrong, injected reproducibly.

A :class:`FaultModel` is the single authority on *what* failures occur —
device crashes with mid-unit work loss, heavy-tail straggler slowdowns,
byzantine update corruption — while the servers own *how the system
reacts* (round deadlines, upload retries, the heartbeat failure
detector).  Models are pure functions of the rng streams the server hands
them, so a faulty run is exactly as reproducible and campaign-cacheable
as a clean one.

Two injection surfaces, matching the two runtimes:

* **Barrier rounds** (synchronous methods): :meth:`FaultModel.round_effects`
  returns per-participant completion-delay factors and additive delays in
  one vectorized draw; the server turns them into completion times,
  applies the round deadline, and charges the clock.
* **Event loop** (async methods): :meth:`FaultModel.unit_slowdown` and
  :meth:`FaultModel.unit_crash` are drawn per training unit from a
  persistent stream, so crashes land as real ``device_crash`` /
  ``device_restart`` scheduler events.

Byzantine corruption (:meth:`FaultModel.is_byzantine` /
:meth:`FaultModel.corrupt`) applies at upload time on both runtimes: a
malicious device trains honestly but lies on the wire, so its *local*
state stays consistent while the server receives garbage.

``is_null`` is the bit-identity fast path: the servers skip every fault
draw, copy and event when it is True, so ``faults="none"`` runs are
byte-for-byte the pre-fault runs.  All fault draws come from dedicated
rng streams (see ``repro.core.server``), so an *armed* model that happens
to inject nothing still perturbs no training/selection/codec randomness.

Fault-aware surfaces: the FedAvg family (fedavg, fedprox, tfedavg) on the
barrier runtime and the async family (fedasync, fedbuff) on the event
loop.  The remaining methods (scaffold, fedat, fedhisyn, tafedavg) ignore
an injected model — their round engines predate the fault layer — which
``build_experiment`` surfaces as a ``UserWarning`` naming the method
(``FederatedServer.fault_aware``) rather than letting a sweep silently
run clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.config import validate_fraction, validate_positive

__all__ = [
    "ATTACKS",
    "RoundEffects",
    "FaultModel",
    "NoFaults",
    "CrashFaults",
    "StragglerFaults",
    "ByzantineFaults",
    "CompoundFaults",
]

#: Byzantine corruption modes: ``sign_flip`` uploads ``-scale * w`` (the
#: classic model-poisoning attack), ``gaussian`` adds ``sigma * N(0, I)``
#: noise, ``scaled`` uploads ``scale * w`` (magnitude inflation).
ATTACKS = ("sign_flip", "gaussian", "scaled")


@dataclass
class RoundEffects:
    """One barrier round's injected delays over the participant vector.

    ``completion_i = duration * factors_i + extra_i`` — multiplicative
    slowdowns (stragglers, crash-and-redo) compose by product across
    compound models, absolute delays (restart downtime) by sum.
    ``lost_time`` is device-time burned on work that never produced an
    update (the partial unit a crash destroyed).
    """

    factors: np.ndarray
    extra: np.ndarray
    crashes: int = 0
    slowdowns: int = 0
    lost_time: float = 0.0

    @classmethod
    def neutral(cls, n: int) -> "RoundEffects":
        return cls(factors=np.ones(n), extra=np.zeros(n))

    def merge(self, other: "RoundEffects") -> "RoundEffects":
        return RoundEffects(
            factors=self.factors * other.factors,
            extra=self.extra + other.extra,
            crashes=self.crashes + other.crashes,
            slowdowns=self.slowdowns + other.slowdowns,
            lost_time=self.lost_time + other.lost_time,
        )


class FaultModel:
    """Interface: every hook is a no-op, so subclasses override only the
    failure modes they model and compose cleanly under
    :class:`CompoundFaults`."""

    name = "base"

    #: True only for :class:`NoFaults` — the servers' fast-path flag: no
    #: fault rng streams are opened, no events armed, no stacks copied.
    is_null = False

    def attach(self, num_devices: int, rng: np.random.Generator) -> None:
        """One-time population-level draws (byzantine membership).  Called
        by the server with the dedicated membership stream before any
        round or event runs."""

    # ------------------------------------------------ barrier-round surface

    def round_effects(
        self, device_ids: np.ndarray, duration: float, rng: np.random.Generator
    ) -> RoundEffects:
        """Per-participant delay draws for one synchronous round."""
        return RoundEffects.neutral(len(device_ids))

    # -------------------------------------------------- event-loop surface

    def unit_slowdown(self, dev_id: int, rng: np.random.Generator) -> float:
        """Multiplier (>= 1) on one training unit's duration."""
        return 1.0

    def unit_crash(
        self, dev_id: int, rng: np.random.Generator
    ) -> tuple[float, float] | None:
        """Crash draw for one training unit: ``(fraction, downtime)`` —
        the device dies ``fraction`` of the way through the unit (losing
        that partial work) and restarts after ``downtime`` — or None."""
        return None

    # --------------------------------------------------- byzantine surface

    def is_byzantine(self, dev_id: int) -> bool:
        return False

    def corrupt(
        self, update: np.ndarray, dev_id: int, rng: np.random.Generator
    ) -> np.ndarray:
        """The update a byzantine device actually uploads (a new array —
        the device's honest local state is never mutated)."""
        return update


class NoFaults(FaultModel):
    """The fault-free world — and the only model with ``is_null=True``."""

    name = "none"
    is_null = True


class CrashFaults(FaultModel):
    """Fail-stop crashes with mid-unit work loss and restart.

    Each participant crashes with ``crash_prob`` per round (per unit on
    the event loop), at a uniform point through its work — the partial
    unit is lost — then restarts after ``downtime`` (jittered ±50%) and
    redoes the work.  A synchronous participant's completion becomes
    ``duration * (1 + frac) + downtime``.
    """

    name = "crash"

    def __init__(self, crash_prob: float = 0.05, downtime: float = 1.0) -> None:
        validate_fraction(crash_prob, "crash_prob", inclusive_low=True)
        validate_positive(downtime, "downtime")
        self.crash_prob = float(crash_prob)
        self.downtime = float(downtime)

    def round_effects(self, device_ids, duration, rng):
        n = len(device_ids)
        mask = rng.random(n) < self.crash_prob
        frac = rng.random(n)
        down = self.downtime * (0.5 + rng.random(n))
        return RoundEffects(
            factors=np.where(mask, 1.0 + frac, 1.0),
            extra=np.where(mask, down, 0.0),
            crashes=int(mask.sum()),
            lost_time=float(duration * frac[mask].sum()),
        )

    def unit_crash(self, dev_id, rng):
        if rng.random() >= self.crash_prob:
            return None
        # Crash strictly inside the unit so the pending unit_complete is
        # always still cancellable — the timer-revocation path under test.
        frac = 0.05 + 0.9 * rng.random()
        down = self.downtime * (0.5 + rng.random())
        return frac, down


class StragglerFaults(FaultModel):
    """Heavy-tail slowdowns: the straggler problem, not mere heterogeneity.

    Each participant straggles with ``straggle_prob``; a straggler's work
    takes ``1 + Pareto(tail_exponent)`` times as long, clipped at
    ``max_slowdown`` so one draw cannot stall a run unboundedly.  This is
    the preset the round-deadline + over-selection mechanism is built to
    beat: without a deadline the barrier waits for the slowest draw.
    """

    name = "straggler"

    def __init__(
        self,
        straggle_prob: float = 0.2,
        tail_exponent: float = 1.5,
        max_slowdown: float = 25.0,
    ) -> None:
        validate_fraction(straggle_prob, "straggle_prob", inclusive_low=True)
        validate_positive(tail_exponent, "tail_exponent")
        if max_slowdown <= 1.0:
            raise ValueError(f"max_slowdown must be > 1, got {max_slowdown}")
        self.straggle_prob = float(straggle_prob)
        self.tail_exponent = float(tail_exponent)
        self.max_slowdown = float(max_slowdown)

    def _slowdowns(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        mask = rng.random(n) < self.straggle_prob
        tail = rng.pareto(self.tail_exponent, n)
        slow = 1.0 + np.minimum(tail, self.max_slowdown - 1.0)
        return mask, slow

    def round_effects(self, device_ids, duration, rng):
        n = len(device_ids)
        mask, slow = self._slowdowns(n, rng)
        return RoundEffects(
            factors=np.where(mask, slow, 1.0),
            extra=np.zeros(n),
            slowdowns=int(mask.sum()),
        )

    def unit_slowdown(self, dev_id, rng):
        if rng.random() >= self.straggle_prob:
            return 1.0
        return 1.0 + float(min(rng.pareto(self.tail_exponent), self.max_slowdown - 1.0))


class ByzantineFaults(FaultModel):
    """A fixed malicious fraction of the population corrupts its uploads.

    Membership is drawn once in :meth:`attach` (a permutation of device
    ids on the dedicated membership stream), so the same devices lie
    every round — the standard byzantine threat model the robust
    aggregators (Krum, trimmed mean, median) are analyzed under.
    """

    name = "byzantine"

    def __init__(
        self,
        fraction: float = 0.2,
        attack: str = "sign_flip",
        scale: float = 10.0,
        sigma: float = 1.0,
    ) -> None:
        validate_fraction(fraction, "fraction", inclusive_low=True)
        if attack not in ATTACKS:
            raise ValueError(f"attack must be one of {ATTACKS}, got {attack!r}")
        validate_positive(scale, "scale")
        validate_positive(sigma, "sigma")
        self.fraction = float(fraction)
        self.attack = attack
        self.scale = float(scale)
        self.sigma = float(sigma)
        self._byzantine: frozenset[int] = frozenset()

    def attach(self, num_devices, rng):
        count = int(self.fraction * num_devices)
        if count <= 0:
            self._byzantine = frozenset()
            return
        perm = rng.permutation(num_devices)
        self._byzantine = frozenset(int(i) for i in perm[:count])

    def is_byzantine(self, dev_id):
        return dev_id in self._byzantine

    def corrupt(self, update, dev_id, rng):
        if self.attack == "sign_flip":
            return -self.scale * update
        if self.attack == "gaussian":
            return update + self.sigma * rng.standard_normal(update.shape)
        return self.scale * update


class CompoundFaults(FaultModel):
    """Several fault models active at once, drawn in fixed child order.

    Delay factors compose by product, absolute delays by sum; the first
    child to report a crash on a unit wins; corruption chains through
    every byzantine child claiming the device.
    """

    name = "compound"

    def __init__(self, models: Sequence[FaultModel]) -> None:
        if not models:
            raise ValueError("CompoundFaults needs at least one child model")
        self.models = list(models)

    def attach(self, num_devices, rng):
        for m in self.models:
            m.attach(num_devices, rng)

    def round_effects(self, device_ids, duration, rng):
        effects = RoundEffects.neutral(len(device_ids))
        for m in self.models:
            effects = effects.merge(m.round_effects(device_ids, duration, rng))
        return effects

    def unit_slowdown(self, dev_id, rng):
        slow = 1.0
        for m in self.models:
            slow *= m.unit_slowdown(dev_id, rng)
        return slow

    def unit_crash(self, dev_id, rng):
        crash = None
        for m in self.models:
            # Every child draws (fixed rng consumption); first crash wins.
            c = m.unit_crash(dev_id, rng)
            if crash is None:
                crash = c
        return crash

    def is_byzantine(self, dev_id):
        return any(m.is_byzantine(dev_id) for m in self.models)

    def corrupt(self, update, dev_id, rng):
        for m in self.models:
            if m.is_byzantine(dev_id):
                update = m.corrupt(update, dev_id, rng)
        return update
