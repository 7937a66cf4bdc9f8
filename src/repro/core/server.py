"""Shared federated-server scaffolding.

Every method in this library (FedHiSyn and the six baselines) is a subclass
of :class:`FederatedServer` that implements a single hook,
:meth:`FederatedServer.run_round`.  The base class owns everything the
paper keeps constant across methods: participant sampling, the virtual
round clock, transmission metering, periodic evaluation, and the RunResult
assembly — so method comparisons differ only in the algorithm itself.

Server↔device traffic flows through the **channel API** —
:meth:`~FederatedServer.broadcast_model`,
:meth:`~FederatedServer.collect_models` for cohorts,
:meth:`~FederatedServer.link_send` for single-device messages,
:meth:`~FederatedServer.peer_send` — which meters every transfer, charges
or reports link transfer time and applies the
:class:`~repro.env.environment.Environment`'s message drops, so method
implementations never touch the meter or the network model directly.
It is the only such accounting: a transport backend moves bytes and
reports what arrived, and the channel charges for it.

The round protocol speaks device *ids*: a participant set is an intp
array of fleet ids in participant order, and every hook and channel call
takes and returns such arrays (or, for uploads, ascending indices into
them).  No per-device object is built on the round path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.compression.base import UpdateCodec
from repro.compression.codecs import IdentityCodec
from repro.core.selection import bernoulli_ids
from repro.datasets.core import ClassificationDataset
from repro.device.batched import BatchedTrainer
from repro.device.fleet import DeviceFleet
from repro.env.environment import Environment
from repro.env.network import SERVER
from repro.faults.model import FaultModel, NoFaults
from repro.nn.serialization import get_flat_params, set_flat_params
from repro.simulation.clock import VirtualClock
from repro.simulation.metrics import (
    MetricsHistory,
    ResilienceStats,
    TransmissionMeter,
)
from repro.simulation.results import RunResult
from repro.simulation.scheduler import (
    EVAL_CHECKPOINT,
    ROUND_BARRIER,
    Scheduler,
    completed_units_array,
)
from repro.transport.base import Transport
from repro.transport.sim import SimTransport
from repro.utils.config import (
    validate_fraction,
    validate_non_negative,
    validate_positive,
)
from repro.utils.logging import NullLogger, RunLogger
from repro.utils.rng import SeedSequenceFactory

__all__ = ["ServerConfig", "FederatedServer"]

#: Keyed rng streams (SeedSequenceFactory spawn keys) owned by the base
#: server.  Participant sampling uses ``(round, 1)`` and ring building
#: ``(round, 2)``; the environment streams below are new keys, so enabling
#: a non-ideal environment never perturbs the training streams.
_AVAILABILITY_STREAM = 3  # (round_idx, 3): per-round availability draws
_DROP_STREAM_KEY = (0, 101)  # persistent message-drop stream (rounds are >= 1)
#: Fault-injection streams (repro.faults) — a third key family, disjoint
#: from both the training/selection streams above and the environment's
#: 100-series, so arming a fault model never perturbs a clean run's draws.
_FAULT_MEMBER_STREAM_KEY = (0, 200)  # one-time byzantine membership draw
_FAULT_ROUND_STREAM = 201  # (round_idx, 201): per-round sync fault draws
_FAULT_ASYNC_STREAM_KEY = (0, 202)  # persistent async fault stream


@dataclass
class ServerConfig:
    """Settings the paper holds constant across methods (Section 6.1)."""

    rounds: int = 100
    participation: float = 1.0  # per-device probability of joining a round
    local_epochs: int = 5  # epochs per training unit
    eval_every: int = 1  # evaluate the global model every k rounds
    # Virtual-time-indexed evaluation: when set, the scheduler fires an
    # eval_checkpoint event every ``eval_time_every`` units of virtual time
    # and the deployed model's metrics land in the history's checkpoint
    # series — the time-to-accuracy sampling process.  None = round-end
    # evals only (the paper's convention).
    eval_time_every: float | None = None
    # Fault tolerance (repro.faults): a synchronous round closes at
    # ``round_deadline`` virtual-time units — whoever has not finished by
    # then is dropped and the *deadline* is charged to the clock, not the
    # straggler.  ``over_select`` compensates by inflating the Bernoulli
    # participation to ``p * (1 + over_select)`` so enough updates still
    # land.  None/0.0 keep the paper's wait-for-everyone semantics
    # bit-identically.
    round_deadline: float | None = None
    over_select: float = 0.0
    seed: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_positive(self.rounds, "rounds")
        validate_fraction(self.participation, "participation")
        validate_positive(self.local_epochs, "local_epochs")
        validate_positive(self.eval_every, "eval_every")
        if self.eval_time_every is not None:
            validate_positive(self.eval_time_every, "eval_time_every")
        if self.round_deadline is not None:
            validate_positive(self.round_deadline, "round_deadline")
        validate_non_negative(self.over_select, "over_select")


class FederatedServer:
    """Template-method FL server on virtual time.

    Subclasses set ``method`` and implement ``run_round(round_idx, ids,
    global_weights) -> new_global_weights``, where ``ids`` is the round's
    participant id array in participant order; they move models through
    :meth:`broadcast_model`/:meth:`collect_models`/:meth:`link_send`/
    :meth:`peer_send` (which own all metering and environment effects)
    and advance
    ``self.clock`` by the round's compute duration.
    """

    method = "base"
    #: True when the method's round path injects ``self.faults``; an armed
    #: fault model on any other method is ignored, and ``build_experiment``
    #: warns rather than let the run pass as a faulty one.
    fault_aware = False
    #: True when the round path cuts rounds at ``config.round_deadline``
    #: (:meth:`charge_round`); on any other method ``build_experiment``
    #: warns that the deadline is ignored.
    deadline_aware = False
    #: The config a server built with ``config=None`` runs on.
    config_cls: type[ServerConfig] = ServerConfig

    def __init__(
        self,
        devices: DeviceFleet,
        test_set: ClassificationDataset,
        config: ServerConfig | None = None,
        logger: RunLogger | None = None,
        env: Environment | None = None,
    ) -> None:
        self.test_set = test_set
        self.config = config if config is not None else self.config_cls()
        self.logger = logger if logger is not None else NullLogger()
        self.env = env if env is not None else Environment.ideal()
        # The population lives in struct-of-arrays storage, addressed by id.
        self.fleet = DeviceFleet.require(devices)
        self.trainer = devices.trainer
        self._unit_times = devices.unit_times
        # {id: last trained row}: the Eq. 7 fallback :meth:`start_views`
        # hands a device whose pull was lost.  Only the methods that call
        # it (FedHiSyn, TAFedAvg) write it, and only on a lossy downlink;
        # fleet rows themselves are recycled every round.
        self.device_history: dict[int, np.ndarray] = {}
        self.meter = TransmissionMeter()
        self.meter.bytes_per_unit = 8.0 * self.trainer.dim
        self.clock = VirtualClock()
        self.history = MetricsHistory()
        # The discrete-event runtime driving fit(); built fresh per fit()
        # call around the current clock (see the event-driven driver).
        self.scheduler: Scheduler | None = None
        self._seeds = SeedSequenceFactory(self.config.seed)
        self.global_weights = get_flat_params(self.trainer.model)
        # Optional pluggable selection policy (repro.core.selection);
        # None = the paper's Bernoulli(participation) sampling below.
        self.selection_policy = None
        # Update codec (repro.compression) every model-carrying channel
        # call routes through; the identity default is fast-pathed so
        # codec="none" stays bit-identical to pre-codec runs.  Assigned
        # post-construction by build_experiment, like selection_policy.
        self.codec: UpdateCodec = IdentityCodec()
        # Downlink references.  A cohort broadcast is one shared stream,
        # encoded against the last model the population decoded from one.
        # A single-device push rides its own link, encoded against
        # {id: the last view delivered to that device} — by a broadcast,
        # the provisioning push or a push of its own; written only under
        # a codec and only on delivery.
        self._codec_down_ref: np.ndarray | None = None
        self._down_refs: dict[int, np.ndarray] = {}
        # Transport backend (repro.transport): who executes a round's
        # device training and over what medium the bytes move.  The sim
        # default keeps everything in-process and bit-identical; assigned
        # post-construction by build_experiment, like selection_policy.
        self.transport: Transport = SimTransport()
        self.transport.bind(self)
        # Batched cross-device training (repro.device.batched): every wave
        # — a barrier round, a FedAT tier round, a ring or event-loop
        # completion wave — trains through run_units, which stacks it on
        # this trainer.  None when the model cannot stack (CNNs); setting
        # it to None by hand is the scalar oracle the tests compare with.
        self.batched_trainer = (
            BatchedTrainer(self.trainer, self.fleet)
            if BatchedTrainer.supports(self.trainer.model)
            else None
        )
        # The round currently executing — non-sim transports need it for
        # round-scoped transfers issued from round-blind channel calls.
        self.current_round = 0
        # Fault injection (repro.faults): the null model is fast-pathed —
        # no fault streams are opened, no deadline logic runs.  Assigned
        # post-construction via set_faults, like selection_policy/codec.
        self.faults: FaultModel = NoFaults()
        self.resilience = ResilienceStats()
        # Channel bookkeeping: messages lost to the environment, offline
        # device-rounds — observability for the robustness benches.
        self.dropped_messages = 0
        self.unavailable_count = 0
        self._drop_rng: np.random.Generator | None = None

    # ---------------------------------------------------------------- hooks

    def run_round(
        self,
        round_idx: int,
        ids: np.ndarray,
        global_weights: np.ndarray,
    ) -> np.ndarray:
        raise NotImplementedError

    # ------------------------------------------------------------ machinery

    @property
    def expected_participants(self) -> float:
        """Expected per-round participant count — the Table 1 denominator's
        participant term.  A plugged-in selection policy that admits a
        different fraction than ``config.participation`` must be normalized
        by what it actually admits, or cost-to-target numbers silently stop
        being comparable across policies."""
        if self.selection_policy is not None:
            fraction = getattr(self.selection_policy, "expected_fraction", None)
            if fraction is not None:
                return fraction * self.fleet.num_devices
        return self.config.participation * self.fleet.num_devices

    @property
    def per_round_unit(self) -> float:
        """Server transfers of one FedAvg round at the same participation:
        a broadcast down and an upload back for each expected participant."""
        return 2.0 * self.expected_participants

    @property
    def _participation(self) -> float:
        """Effective Bernoulli participation: the configured probability
        inflated by the over-selection margin (sample ``k*(1+margin)`` so
        a deadline round still lands enough updates).  The margin is
        deliberately *not* folded into :attr:`expected_participants` —
        over-selection is insurance, and its extra transfers must show up
        in the relative-cost metrics rather than re-normalize them away."""
        margin = self.config.over_select
        if margin > 0.0:
            return min(1.0, self.config.participation * (1.0 + margin))
        return self.config.participation

    def _select_ids(self, round_idx: int, rng: np.random.Generator) -> np.ndarray:
        """Ids picked for ``round_idx``, before availability: the installed
        policy's choice, else the paper's Bernoulli(participation) draw.
        Shared by the per-round selection and the async cohort draw."""
        if self.selection_policy is not None:
            return np.asarray(
                self.selection_policy.select(round_idx, self.fleet, rng),
                dtype=np.intp,
            )
        return bernoulli_ids(self.fleet, self._participation, rng)

    def select_participants(self, round_idx: int) -> np.ndarray:
        """Bernoulli(participation) per device, at least one participant.

        The paper: "each device has a 100%, 50%, and 10% chance of
        participating in the training."  The sampled set is then filtered
        through the environment's availability model (offline devices were
        picked but never show up), still guaranteeing one participant.

        Returns the participant id array in policy order (a ranked policy's
        ranking survives); the whole selection is array ops over ids.
        """
        ids = self._select_ids(round_idx, self._seeds.generator(round_idx, 1))
        if not self.env.availability.always_on:
            online = self.env.available_ids(
                round_idx,
                ids,
                self._unit_times[ids],
                self._seeds.generator(round_idx, _AVAILABILITY_STREAM),
            )
            self.unavailable_count += len(ids) - len(online)
            ids = online
        return ids

    # ------------------------------------------------------ fault machinery

    def set_faults(self, model: FaultModel) -> None:
        """Install a fault model and run its one-time population draws.

        Membership (which devices are byzantine) comes from the dedicated
        ``(0, 200)`` stream, so arming a model perturbs no training,
        selection, availability or codec randomness.
        """
        self.faults = model
        if not model.is_null:
            model.attach(
                self.fleet.num_devices,
                self._seeds.generator(*_FAULT_MEMBER_STREAM_KEY),
            )

    @property
    def faults_active(self) -> bool:
        """True when the round path must run fault/deadline logic at all —
        the inverse of the ``faults="none"`` + no-deadline fast path."""
        return not self.faults.is_null or self.config.round_deadline is not None

    def charge_round(
        self,
        round_idx: int,
        ids: np.ndarray,
        duration: float,
        stack: np.ndarray,
        arrived: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Close a barrier round's compute phase: inject faults, apply the
        deadline, charge the clock.

        The FedAvg-family replacement for the bare
        ``clock.advance_by(duration)``.  On the fast path (no fault model,
        no deadline) it *is* exactly that call — zero extra draws, the
        same objects returned.  Otherwise per-participant completion times
        are drawn from the round's fault stream, byzantine rows are
        corrupted (on a copy — device state stays honest), late uploads
        are cut by ``config.round_deadline``, and the clock is charged
        the deadline rather than the slowest straggler.  ``ids`` are the
        round's receivers and ``arrived`` the ascending indices into them
        that :meth:`collect_models` returned.
        """
        if not self.faults_active:
            self.clock.advance_by(duration)
            return arrived, stack
        res = self.resilience
        completion = np.full(len(ids), float(duration))
        if not self.faults.is_null:
            rng = self._seeds.generator(round_idx, _FAULT_ROUND_STREAM)
            effects = self.faults.round_effects(ids, duration, rng)
            completion = duration * effects.factors + effects.extra
            res.injected_crashes += effects.crashes
            res.injected_slowdowns += effects.slowdowns
            res.wasted_time += effects.lost_time
            byz = [i for i in arrived.tolist() if self.faults.is_byzantine(int(ids[i]))]
            if byz:
                # Corrupt a detached copy: in recycled-arena mode the rows
                # are the devices' live weights, and a byzantine device
                # lies on the wire while training honestly.
                stack = np.array(stack)
                for i in byz:
                    stack[i] = self.faults.corrupt(stack[i], int(ids[i]), rng)
                    res.injected_corruptions += 1
        deadline = self.config.round_deadline
        times = completion[arrived]
        charge = float(times.max()) if len(arrived) else duration
        if deadline is not None:
            on_time = times <= deadline
            if not on_time.all():
                res.deadline_hits += 1
                res.dropped_updates += int((~on_time).sum())
                # A Python sum, in arrival order: the ledger's float.
                res.wasted_time += float(sum(times[~on_time].tolist()))
                if on_time.any():
                    arrived = arrived[on_time]
                    charge = float(deadline)
                else:
                    # A server must aggregate something: wait for the
                    # earliest finisher (and pay for the overrun).
                    best = int(np.argmin(times))
                    arrived = arrived[best : best + 1]
                    charge = float(times[best])
        self.clock.advance_by(charge)
        return arrived, stack

    # ------------------------------------------------------- fleet helpers

    def epochs_for(self, ids: np.ndarray, duration: float) -> np.ndarray:
        """Maximum achievable local epochs per device within ``duration``
        (paper Section 6.1): ``floor(duration / unit_time)`` units, at least
        one, of ``config.local_epochs`` epochs each."""
        times = self._unit_times[ids]
        return completed_units_array(duration, times) * self.config.local_epochs

    def train_round(
        self,
        ids: np.ndarray,
        stack: np.ndarray,
        epochs: np.ndarray,
        round_idx: int,
        global_weights: np.ndarray,
        anchor: np.ndarray | None = None,
        mu: float = 0.0,
    ) -> None:
        """One training unit per device in ``ids``, results into ``stack``
        rows.

        The FedAvg-family inner loop, delegated to the transport backend:
        the sim default trains in-process (bit-identical to when this
        loop lived here, see :class:`~repro.transport.sim.SimTransport`);
        the live backend ships the round to worker processes over UDP and
        reassembles their uploads into the same rows.
        """
        self.transport.train_round(
            self,
            ids,
            stack,
            epochs,
            round_idx,
            global_weights,
            anchor=anchor,
            mu=mu,
        )

    # -------------------------------------------------------- channel API

    def broadcast_model(
        self,
        ids: np.ndarray,
        weights: np.ndarray,
        extra_units: float = 0.0,
        ensure_one: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Server -> device push of ``weights`` to every receiver in ``ids``.

        The one downlink accounting, whatever the transport: meters one
        download per receiver (sent, not delivered — a lost message still
        crossed the costed channel), charges the slowest link's transfer
        time to the virtual clock and draws the environment's drops.
        Returns ``(delivered, view)``: the ids reached, in ``ids`` order,
        and the model they actually obtain — ``weights`` itself under the
        identity codec, the codec's decoded reconstruction otherwise.  The
        decoded view becomes the new shared downlink reference, so
        successive broadcasts compress against what the population last
        received.  ``extra_units`` rides along uncompressed (SCAFFOLD's
        control variate — server state, not a model update).
        ``ensure_one=True`` (round-level calls) guarantees at least one
        delivery so a round can never stall; FedAT's tier rounds pass
        ``False`` and handle an empty delivery themselves.  A message to
        one device alone goes through :meth:`link_send` instead.
        """
        if not len(ids):
            return ids, weights
        enc, view, units = self.codec.transmit(
            weights, "server-down", self._codec_down_ref
        )
        units += extra_units
        self.meter.record_download(len(ids), units, raw_units=1.0 + extra_units)
        self._charge_transfer(ids, units)
        delivered = self._apply_drops(ids, ensure_one)
        self._codec_down_ref = view
        if enc is not None:
            # Every receiver now holds the view: its link's reference too.
            self._down_refs.update(dict.fromkeys(delivered.tolist(), view))
        self.transport.downlink(self, weights, enc, view)
        return delivered, view

    def collect_models(
        self,
        ids: np.ndarray,
        stack: np.ndarray,
        reference: np.ndarray | dict[int, np.ndarray] | None = None,
        extra_units: float = 0.0,
        ensure_one: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Device -> server uploads of ``stack``'s rows (row i is device
        ``ids[i]``'s trained model).

        The one uplink accounting: the transport reports which senders'
        bytes are present (sim: all; live: what the workers delivered),
        the stack the server reconstructs and their wire sizes; this
        meters one upload per present sender, charges the slowest uplink
        and draws drops.  Returns ``(arrived, decoded)``: the surviving
        *indices* into ``ids``, always ascending — the aggregation step
        filters its stacked updates by them — plus the reconstructed
        stack (``stack`` itself under the identity codec).
        ``reference`` is the model each sender trained from (the
        broadcast view, or a :meth:`start_views` dict keyed by device id
        after a lossy broadcast); senders without one upload dense.
        Per-sender wire sizes differ, so a codec's clock charge uses the
        per-link unit vector.
        """
        if not len(ids):
            return np.empty(0, dtype=np.intp), stack
        present, decoded, wire_units = self.transport.uplink(self, ids, stack, reference)
        senders = ids if len(present) == len(ids) else ids[present]
        if self.codec.is_identity:
            units = 1.0 + extra_units
            self.meter.record_upload(len(senders), units)
        else:
            units = wire_units + extra_units
            self.meter.record_upload(
                1, float(units.sum()), raw_units=len(senders) * (1.0 + extra_units)
            )
        self._charge_transfer(senders, units)
        return self._apply_drops(present, ensure_one), decoded

    def link_send(
        self,
        dev_id: int,
        vec: np.ndarray,
        up_from: np.ndarray | None = None,
    ) -> tuple[np.ndarray | None, float]:
        """One single-device message over ``dev_id``'s server link: a push
        of ``vec``, or with ``up_from`` (the model the unit ran from, which
        both endpoints hold) an upload.

        The per-link twin of :meth:`broadcast_model`/:meth:`collect_models`
        for event-level traffic: a push rides stream ``("down", dev_id)``
        against the last view delivered to the device, an upload stream
        ``dev_id``; one transfer is metered and the loss drawn from the
        shared ``(0, 101)`` stream.  Returns ``(view, seconds)``: what the
        receiver decodes — None when lost, and a lost push leaves the
        link's reference — and the link time, which the caller charges (a
        barrier method) or schedules (the event loop).
        """
        if up_from is not None:
            enc, view, units = self.codec.transmit(vec, dev_id, up_from)
            self.meter.record_upload(1, units, raw_units=1.0)
            src, dst = dev_id, SERVER
        else:
            enc, view, units = self.codec.transmit(
                vec, ("down", dev_id), self._down_refs.get(dev_id)
            )
            self.meter.record_download(1, units, raw_units=1.0)
            src, dst = SERVER, dev_id
        p = self.env.network.drop_prob
        if p > 0.0 and self._drops.random() < p:
            self.dropped_messages += 1
            view = None
        elif enc is not None and src == SERVER:
            self._down_refs[dev_id] = view
        return view, self.env.network.transfer_time(src, dst, units)

    def provision(self, ids: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """The event loop's t=0 push of ``weights`` to every device of
        ``ids``: one dense download each, lossless (a fleet is provisioned
        out of band; a "lost" push would re-deliver the same vector).
        Establishes each link's downlink reference under a codec; returns
        the per-link transfer times."""
        self.meter.record_download(len(ids))
        if not self.codec.is_identity:
            self._down_refs.update(dict.fromkeys(ids.tolist(), weights))
        return self.env.network.server_transfer_times(ids, 1.0)

    def start_views(
        self,
        ids: np.ndarray,
        delivered: np.ndarray,
        global_weights: np.ndarray,
    ) -> np.ndarray | dict[int, np.ndarray]:
        """Per-device training start model after a (possibly lossy) broadcast.

        The companion to :meth:`broadcast_model`: the ``delivered`` subset of
        ``ids`` starts from the global model; a device whose pull was lost
        continues its last trained model from ``device_history`` (or the
        global model when it has none yet).  Returns the plain global
        vector when everyone received, so the lossless path allocates
        nothing.
        """
        if len(delivered) == len(ids):
            return global_weights
        got = set(delivered.tolist())
        history = self.device_history
        return {
            dev_id: global_weights if dev_id in got
            else history.get(dev_id, global_weights)
            for dev_id in ids.tolist()
        }

    @staticmethod
    def filter_arrived(
        arrived: np.ndarray, *arrays: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Slice per-sender stacked arrays down to the uploads that arrived.

        The companion to :meth:`collect_models`: pass the stacked updates (and any
        aligned per-sender vectors) and get them filtered by the surviving
        indices.  When everything arrived the inputs are returned unchanged
        (same objects — the ``ideal`` bit-identity path).
        """
        if not arrays or len(arrived) == len(arrays[0]):
            return arrays
        return tuple(a[arrived] for a in arrays)

    def peer_send(
        self,
        count: int = 1,
        model_units: float = 1.0,
        raw_units: float | None = None,
    ) -> None:
        """Meter device-to-device hops (ring forwards).  Delays and drops
        for peer traffic are applied inside the ring engine, which reads
        the same environment's network model.  ``raw_units`` carries the
        uncompressed size when the hops went through a codec."""
        self.meter.record_peer(count, model_units, raw_units)

    def _charge_transfer(
        self, ids: np.ndarray, model_units: float | np.ndarray
    ) -> None:
        """Advance the clock by the slowest link's transfer time.

        Contract: a round's wall-clock time is compute (the method's
        ``advance_by(duration)``) plus every channel call's slowest-link
        transfer time; under ``ideal`` the transfer term is exactly zero
        and the clock is untouched.  ``model_units`` may be a per-device
        array (codec uploads have per-sender wire sizes).
        """
        t = self.env.server_transfer_time_ids(ids, model_units)
        if t > 0.0:
            self.clock.advance_by(t)

    def _apply_drops(self, items: np.ndarray, ensure_one: bool) -> np.ndarray:
        """Independently drop each message with the network's drop_prob.

        ``items`` is an id (or index) array; the survivors keep its order.
        Returns ``items`` unchanged (same object, no rng draw) when the
        environment never drops — the bit-identity fast path.
        """
        p = self.env.network.drop_prob
        if p <= 0.0:
            return items
        rng = self._drops
        kept = items[rng.random(len(items)) >= p]
        if not len(kept) and ensure_one:
            pick = int(rng.integers(len(items)))
            kept = items[pick : pick + 1]
        self.dropped_messages += len(items) - len(kept)
        return kept

    @property
    def _drops(self) -> np.random.Generator:
        """The persistent ``(0, 101)`` message-drop stream, opened at the
        first lossy send so a lossless run never touches it."""
        if self._drop_rng is None:
            self._drop_rng = self._seeds.generator(*_DROP_STREAM_KEY)
        return self._drop_rng

    def round_duration(self, ids: np.ndarray) -> float:
        """Paper convention: the slowest participant's unit time."""
        return float(self._unit_times[ids].max())

    def evaluate(self, weights: np.ndarray) -> tuple[float, float]:
        """(accuracy, loss) of ``weights`` on the held-out test set.

        One fused pass: each test batch is forwarded once for both metrics.
        """
        model = self.trainer.model
        set_flat_params(model, weights)
        return model.evaluate_metrics(self.test_set.x, self.test_set.y)

    # ------------------------------------------------- event-driven driver

    def fit(self, initial_weights: np.ndarray | None = None) -> RunResult:
        """Run ``config.rounds`` rounds on the discrete-event scheduler.

        A synchronous method is the *degenerate schedule*: one
        ``round_barrier`` event per round, each handler running the whole
        round (which advances the shared clock by its transfer + compute
        time) and pushing the next barrier at the new now.  The clock, the
        rng streams and every recorded float are identical to the old
        ``for round in range(rounds)`` loop — but the run now shares its
        runtime with the asynchronous methods, and time-indexed
        ``eval_checkpoint`` events interleave with the barriers whenever
        ``config.eval_time_every`` is set.
        """
        if initial_weights is not None:
            self.global_weights = np.asarray(initial_weights, dtype=np.float64).copy()
        sched = Scheduler(clock=self.clock)
        self.scheduler = sched
        # The model the outside world sees *during* the round currently
        # executing — what a time-indexed checkpoint inside the round's
        # clock jump must evaluate (the aggregation lands only at its end).
        self._deployed_weights = self.global_weights
        self._checkpoint_eval: tuple | None = None
        sched.on(ROUND_BARRIER, self._on_round_barrier)
        sched.on(EVAL_CHECKPOINT, self._on_eval_checkpoint)
        if self.config.eval_time_every is not None:
            sched.at(self.clock.now + self.config.eval_time_every, EVAL_CHECKPOINT)
        sched.at(self.clock.now, ROUND_BARRIER, 1)
        sched.run()
        return self._assemble_result()

    def _on_round_barrier(self, ev) -> None:
        """One synchronous round; schedules its successor at the new now."""
        r = ev.payload
        cfg = self.config
        self.current_round = r
        self._deployed_weights = self.global_weights
        ids = self.select_participants(r)
        self.global_weights = self.run_round(r, ids, self.global_weights)
        self._record_step(r, final=r == cfg.rounds)
        if r < cfg.rounds:
            self.scheduler.at(self.clock.now, ROUND_BARRIER, r + 1)
        else:
            # Drain checkpoints that matured during the final round, then
            # halt — future-dated ones must not drag the clock onward.
            self.scheduler.finish_at(self.clock.now)

    def _record_step(self, step: int, final: bool) -> None:
        """Round-indexed eval of the global model every ``eval_every``
        steps and at the ``final`` one: a sync round, or an async server's
        aggregation (its version plays the round's role)."""
        if step % self.config.eval_every and not final:
            return
        acc, loss = self.evaluate(self.global_weights)
        self.history.record(
            step, self.clock.now, self.meter.server_total, acc, loss
        )
        self.logger.log(
            round=step,
            accuracy=round(acc, 4),
            loss=round(loss, 4),
            transfers=self.meter.server_total,
            vtime=round(self.clock.now, 3),
        )

    def _on_eval_checkpoint(self, ev) -> None:
        """Time-indexed evaluation of the model deployed at ``ev.time``.

        Synchronous rounds jump the clock, so a checkpoint nominally due
        mid-round fires (lagged) right after the round's barrier; it
        evaluates the *pre-aggregation* model — the one the world was
        actually serving at the checkpoint's nominal time — and records
        under that nominal time.  Transfers are metered as of the covering
        aggregation (virtual time and the meter advance atomically per
        round, so no finer attribution exists).

        Several checkpoints maturing inside one clock jump see the same
        deployed vector, so its metrics are computed once and shared
        (aggregations *replace* the global vector, making object identity
        a sound cache key).
        """
        weights = self._deployed_weights
        cached = self._checkpoint_eval
        if cached is None or cached[0] is not weights:
            acc, loss = self.evaluate(weights)
            self._checkpoint_eval = (weights, acc, loss)
        else:
            _, acc, loss = cached
        self.history.record_time_checkpoint(
            ev.time, self.meter.server_total, acc, loss
        )
        self.scheduler.at(
            ev.time + self.config.eval_time_every, EVAL_CHECKPOINT
        )

    def _assemble_result(self) -> RunResult:
        """The RunResult of the history/weights accumulated by a driver."""
        cfg = self.config
        return RunResult(
            method=self.method,
            dataset=self.test_set.name,
            history=self.history,
            final_weights=self.global_weights,
            per_round_unit=self.per_round_unit,
            config={
                "rounds": cfg.rounds,
                "participation": cfg.participation,
                "local_epochs": cfg.local_epochs,
                "seed": cfg.seed,
                **cfg.extra,
            },
            transport={**self.meter.snapshot(), **self.transport.stats()},
            transport_backend=self.transport.name,
            resilience=(
                self.resilience.snapshot()
                if self.faults_active or self.resilience.active()
                else {}
            ),
        )
