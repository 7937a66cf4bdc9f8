"""High-level experiment assembly: one config object -> one RunResult.

This is the entry point examples and benchmarks use.  An
:class:`ExperimentSpec` names a dataset, a partition scheme, a
heterogeneity profile, a model preset and a method; :func:`run_experiment`
assembles the substrate (data, devices, trainer, server) and runs it on the
virtual clock.

Reduced-scale defaults: the paper runs 100 devices / 100-150 rounds on a
GPU fleet; this box has one CPU core.  Specs default to bench-scale values
and every paper-scale value remains one field away (see DESIGN.md).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

import numpy as np

import repro.baselines  # noqa: F401  (registers the baseline methods)
import repro.core.fedhisyn  # noqa: F401  (registers fedhisyn)
from repro.compression import CODECS
from repro.core.aggregation import AGGREGATORS
from repro.core.async_server import STALENESS_DECAYS
from repro.core.registry import METHODS
from repro.core.selection import SELECTION_POLICIES, make_policy
from repro.core.server import FederatedServer
from repro.datasets import Partition, make_dataset, partition_by_name
from repro.datasets.core import ClassificationDataset, split_indices
from repro.datasets.registry import DATASETS
from repro.device import LocalTrainer, make_fleet, unit_times_from_counts, unit_times_from_ratio
from repro.device.heterogeneity import sample_unit_counts
from repro.env.registry import ENVIRONMENTS
from repro.faults import FAULT_MODELS
from repro.nn.layers import Flatten
from repro.nn.models import Sequential, paper_cnn, paper_mlp
from repro.transport import TRANSPORTS
from repro.utils.config import (
    validate_at_least,
    validate_fraction,
    validate_non_negative,
    validate_positive,
)
from repro.utils.logging import RunLogger

__all__ = [
    "ExperimentSpec",
    "FLEET_PROFILES",
    "build_model",
    "build_experiment",
    "run_experiment",
    "METHODS",
    "AXES",
]

#: The named axes that carry keyword overrides, as ``(name field, kwargs
#: field, default name)`` rows.  Spec validation, :func:`run_experiment`'s
#: config echo, :func:`repro.campaign.sweep` and the CLI walk this table
#: instead of spelling each axis out; a default of ``None`` means the name
#: is always meaningful (there is no "absent" method or environment).
AXES = (
    ("method", "method_kwargs", None),
    ("env", "env_kwargs", None),
    ("codec", "codec_kwargs", "none"),
    ("faults", "fault_kwargs", "none"),
    ("transport", "transport_kwargs", "sim"),
)

#: Spec fields that only some method configs define: forwarded to the
#: config (and echoed on the result) when set and the config defines them
#: (:func:`_forwarded_optional`), left alone otherwise.
_OPTIONAL = (
    "eval_time_every",
    "staleness_decay",
    "buffer_goal",
    "aggregator",
    "round_deadline",
    "over_select",
    "max_retries",
)

_PARTITIONS = ("iid", "contiguous", "dirichlet", "shard")

#: Model size presets.  "paper" is the architecture of Section 6.1 verbatim;
#: "small" shrinks widths for the single-core benchmark budget while keeping
#: the same depth/structure.
MODEL_PRESETS: dict[str, dict[str, Any]] = {
    "paper": {"mlp_hidden": (200, 100), "cnn_channels": 64, "cnn_fc": (394, 192)},
    "small": {"mlp_hidden": (48, 24), "cnn_channels": 8, "cnn_fc": (48, 24)},
}

#: Fleet-scale presets: one name pins the population shape (device count,
#: dataset size, realistic participation for that scale).  A profile is a
#: *sweep axis* like any other spec field — ``--grid
#: fleet_profile=bench,city`` compares the same method at lab scale and at
#: city scale.  The struct-of-arrays device layer keeps per-round cost
#: O(participants), so even "metro" stays a laptop-sized run.
FLEET_PROFILES: dict[str, dict[str, Any]] = {
    "bench": {"num_devices": 20, "num_samples": 2000, "participation": 1.0},
    "lab": {"num_devices": 100, "num_samples": 10_000, "participation": 1.0},
    "campus": {"num_devices": 1_000, "num_samples": 20_000, "participation": 0.5},
    "city": {"num_devices": 5_000, "num_samples": 50_000, "participation": 0.1},
    "metro": {"num_devices": 20_000, "num_samples": 100_000, "participation": 0.02},
    # Million-device runs: contiguous shards are one ``arange`` (no
    # per-device index copies), participation keeps the active
    # cohort around a thousand, and the small test fraction keeps eval off
    # the critical path.  Pairs with the async servers' batched events —
    # see the "million-device runs" quickstart in the README.
    "mega": {
        "num_devices": 1_000_000,
        "num_samples": 1_100_000,
        "participation": 0.001,
        "partition": "contiguous",
        "test_fraction": 0.005,
    },
}


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce one training run.

    Specs are plain data: :meth:`to_dict`/:meth:`from_dict` round-trip
    losslessly through JSON, which is what the campaign runner's on-disk
    cache and its worker processes rely on.  ``__post_init__`` validates
    every field so a bad grid value fails at sweep-expansion time, not
    twenty minutes into a campaign.
    """

    method: str = "fedhisyn"
    dataset: str = "mnist_like"
    num_samples: int = 2000
    num_devices: int = 20
    partition: str = "dirichlet"  # "iid" | "dirichlet" | "shard" | "contiguous"
    beta: float = 0.3
    participation: float = 1.0
    # Heterogeneity: either unit counts in [units_low, units_high] (paper
    # mode) or an exact ratio H (Fig. 7 mode, takes precedence if set).
    units_low: int = 1
    units_high: int = 10
    het_ratio: float | None = None
    rounds: int = 20
    local_epochs: int = 1
    lr: float = 0.1
    batch_size: int = 50
    eval_every: int = 1
    # Virtual-time-indexed eval checkpoints every this many time units
    # (any method; the scheduler's eval_checkpoint events) — the
    # time-to-accuracy sampling process.  None = round-end evals only.
    eval_time_every: float | None = None
    model_preset: str = "small"
    model_family: str | None = None  # default: the dataset registry's family
    test_fraction: float = 0.2
    seed: int = 0
    # Device-selection policy (repro.core.selection); None keeps the
    # server's built-in Bernoulli(participation) sampling.
    selection: str | None = None
    selection_fraction: float | None = None  # policy fraction; default: participation
    # Simulated world (repro.env): named preset plus keyword overrides.
    # "ideal" reproduces the paper's semantics bit-for-bit.
    env: str = "ideal"
    env_kwargs: dict[str, Any] = field(default_factory=dict)
    # Fleet-scale preset (FLEET_PROFILES): supplies defaults for the
    # fields it defines (num_devices/num_samples/participation).  A field
    # the caller moved off its dataclass default keeps the explicit value
    # — so a grid over e.g. participation still varies under a profile,
    # and re-validation (campaign `replace`, JSON round-trips) never
    # claws a swept value back to the preset.
    fleet_profile: str | None = None
    # Async-family knobs (fedasync/fedbuff), sweepable like any field;
    # silently ignored by methods whose config does not define them, so a
    # campaign grid can mix sync and async methods on one axis set.
    staleness_decay: str | None = None
    buffer_goal: int | None = None
    method_kwargs: dict[str, Any] = field(default_factory=dict)
    # Update compression (repro.compression): named codec plus keyword
    # overrides.  "none" reproduces dense transfers bit-for-bit.
    codec: str = "none"
    codec_kwargs: dict[str, Any] = field(default_factory=dict)
    # Robust aggregation for FedAvg-family rounds (repro.core.aggregation);
    # None keeps each method's built-in rule.
    aggregator: str | None = None
    # Fault injection (repro.faults): named model plus keyword overrides.
    # "none" is the zero-overhead null model (bit-identical to the seed
    # behavior).  Fault-aware methods: fedavg/fedprox/tfedavg (barrier
    # rounds) and fedasync/fedbuff (event loop); other methods ignore the
    # model.
    faults: str = "none"
    fault_kwargs: dict[str, Any] = field(default_factory=dict)
    # Sync-round fault tolerance: cut the round at this virtual-time
    # deadline (late uploads are dropped, the round is charged the
    # deadline) and over-sample participants by this margin to compensate.
    round_deadline: float | None = None
    over_select: float | None = None
    # Async upload retransmission budget (fedasync/fedbuff); None keeps
    # the method config's default.
    max_retries: int | None = None
    # Transport backend (repro.transport): "sim" executes everything
    # in-process (bit-identical to pre-transport runs); "live" runs the
    # round loop as real OS worker processes over loopback UDP.
    transport: str = "sim"
    transport_kwargs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.fleet_profile is not None:
            profile = FLEET_PROFILES.get(self.fleet_profile)
            if profile is None:
                raise ValueError(
                    f"fleet_profile must be one of {sorted(FLEET_PROFILES)}, "
                    f"got {self.fleet_profile!r}"
                )
            defaults = {
                f.name: f.default for f in fields(self) if f.name in profile
            }
            for key, value in profile.items():
                if getattr(self, key) == defaults[key]:
                    setattr(self, key, value)
        validate_positive(self.num_samples, "num_samples")
        validate_positive(self.num_devices, "num_devices")
        validate_positive(self.rounds, "rounds")
        validate_positive(self.local_epochs, "local_epochs")
        validate_positive(self.lr, "lr")
        validate_positive(self.batch_size, "batch_size")
        validate_positive(self.eval_every, "eval_every")
        validate_positive(self.beta, "beta")
        validate_positive(self.units_low, "units_low")
        validate_fraction(self.participation, "participation")
        validate_fraction(self.test_fraction, "test_fraction")
        if self.partition not in _PARTITIONS:
            raise ValueError(
                f"partition must be one of {_PARTITIONS}, got {self.partition!r}"
            )
        if self.units_high < self.units_low:
            raise ValueError(
                f"units_high ({self.units_high}) must be >= units_low "
                f"({self.units_low})"
            )
        if self.het_ratio is not None:
            validate_at_least(self.het_ratio, 1, "het_ratio")
        if self.model_preset not in MODEL_PRESETS:
            raise ValueError(
                f"model_preset must be one of {sorted(MODEL_PRESETS)}, "
                f"got {self.model_preset!r}"
            )
        if self.model_family not in (None, "mlp", "cnn"):
            raise ValueError(
                f"model_family must be None, 'mlp' or 'cnn', "
                f"got {self.model_family!r}"
            )
        if self.selection_fraction is not None:
            validate_fraction(self.selection_fraction, "selection_fraction")
        if self.eval_time_every is not None:
            validate_positive(self.eval_time_every, "eval_time_every")
        if (
            self.staleness_decay is not None
            and self.staleness_decay not in STALENESS_DECAYS
        ):
            raise ValueError(
                f"staleness_decay must be one of {STALENESS_DECAYS}, "
                f"got {self.staleness_decay!r}"
            )
        if self.buffer_goal is not None:
            validate_positive(self.buffer_goal, "buffer_goal")
        if self.aggregator is not None and self.aggregator not in AGGREGATORS:
            raise ValueError(
                f"aggregator must be one of {AGGREGATORS}, got {self.aggregator!r}"
            )
        if self.round_deadline is not None:
            validate_positive(self.round_deadline, "round_deadline")
        if self.over_select is not None:
            validate_non_negative(self.over_select, "over_select")
        if self.over_select and self.selection is not None:
            raise ValueError(
                f"over_select={self.over_select} has no effect with "
                f"selection={self.selection!r}: the margin inflates the "
                "default Bernoulli(participation) draw, a selection policy "
                "sizes its own cohort — raise selection_fraction instead"
            )
        if self.max_retries is not None:
            validate_non_negative(self.max_retries, "max_retries")
        for _, kwargs_field, _ in AXES:
            kwargs = getattr(self, kwargs_field)
            if not isinstance(kwargs, dict):
                raise ValueError(
                    f"{kwargs_field} must be a dict, got {type(kwargs).__name__}"
                )
        # Every named axis fails here — an unknown name or a bad override
        # key raises ValueError at spec time, not mid-run.  The method's
        # kwargs are only key-checked (values are validated where the
        # config is built); the other axes are cheap enough to construct.
        DATASETS.entry(self.dataset)
        if self.selection is not None:
            SELECTION_POLICIES.entry(self.selection)
        unknown = sorted(
            set(self.method_kwargs)
            - {f.name for f in fields(METHODS.entry(self.method).config_cls)}
        )
        if unknown:
            raise METHODS.bad_kwargs(self.method, f"unknown field(s) {unknown}")
        ENVIRONMENTS.make(self.env, **self.env_kwargs)
        CODECS.make(self.codec, **self.codec_kwargs)
        FAULT_MODELS.make(self.faults, **self.fault_kwargs)
        # The backend additionally vets the *whole* spec (live supports
        # only the sync FedAvg family on drop-free, fault-free worlds).
        TRANSPORTS.make(self.transport, **self.transport_kwargs).validate_spec(self)

    def with_method(self, method: str, **method_kwargs) -> "ExperimentSpec":
        """Same experiment, different algorithm — for method comparisons."""
        return replace(self, method=method, method_kwargs=dict(method_kwargs))

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-serializable dict (the campaign cache/worker format)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; unknown keys are an error."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown ExperimentSpec field(s): {unknown}")
        return cls(**data)


def build_model(
    dataset: ClassificationDataset,
    family: str,
    preset: str = "small",
    seed: int | np.random.Generator | None = 0,
) -> Sequential:
    """Construct the paper's model family sized by ``preset``.

    An MLP applied to image data gets a Flatten front; a CNN requires image
    data.
    """
    sizes = MODEL_PRESETS[preset]
    if family == "mlp":
        model = paper_mlp(
            dataset.flat_features,
            dataset.num_classes,
            seed=seed,
            hidden=sizes["mlp_hidden"],
        )
        if len(dataset.feature_shape) > 1:
            model = Sequential([Flatten(), *model.layers])
        return model
    if family == "cnn":
        if len(dataset.feature_shape) != 3:
            raise ValueError("cnn family requires (C, H, W) data")
        c, h, w = dataset.feature_shape
        if h != w:
            raise ValueError(f"cnn expects square images, got {h}x{w}")
        return paper_cnn(
            c,
            h,
            dataset.num_classes,
            seed=seed,
            conv_channels=sizes["cnn_channels"],
            fc_sizes=sizes["cnn_fc"],
        )
    raise ValueError(f"unknown model family {family!r}")


def build_experiment(
    spec: ExperimentSpec, logger: RunLogger | None = None
) -> FederatedServer:
    """Assemble dataset, devices, trainer and server for ``spec``."""
    entry = METHODS.entry(spec.method)

    # The dataset is generated straight into fleet order: ``fleet_order``
    # splits and partitions the labels before any feature is drawn, and
    # every sample is written once, to its final row — the devices' shards
    # back to back, then the test set.
    parts: Partition | None = None

    def fleet_order(y: np.ndarray, num_classes: int) -> np.ndarray:
        nonlocal parts
        train, test = split_indices(y, num_classes, spec.test_fraction, seed=spec.seed + 1)
        parts = partition_by_name(
            spec.partition,
            ClassificationDataset(np.empty((train.size, 0)), y[train], num_classes),
            spec.num_devices,
            seed=spec.seed + 2,
            **({"beta": spec.beta} if spec.partition == "dirichlet" else {}),
        )
        return np.concatenate([train[parts.indices], test])

    dataset = make_dataset(
        spec.dataset, num_samples=spec.num_samples, seed=spec.seed, arrange=fleet_order
    )
    # Shards and test set share this block: a stray in-place write raises.
    dataset.x.flags.writeable = dataset.y.flags.writeable = False
    x, y, n_train = dataset.x, dataset.y, parts.indices.size
    train_set = ClassificationDataset(
        x[:n_train], y[:n_train], dataset.num_classes, name=f"{dataset.name}/train"
    )
    test_set = ClassificationDataset(
        x[n_train:], y[n_train:], dataset.num_classes, name=f"{dataset.name}/test"
    )

    if spec.het_ratio is not None:
        unit_times = unit_times_from_ratio(
            spec.num_devices, spec.het_ratio, seed=spec.seed + 3
        )
    else:
        counts = sample_unit_counts(
            spec.num_devices, spec.units_low, spec.units_high, seed=spec.seed + 3
        )
        unit_times = unit_times_from_counts(counts)

    family = spec.model_family or DATASETS[spec.dataset].model_family
    model = build_model(test_set, family, spec.model_preset, seed=spec.seed + 4)
    trainer = LocalTrainer(
        model, lr=spec.lr, batch_size=spec.batch_size, seed=spec.seed + 5
    )
    # The train rows are already in fleet order: the fleet aliases them
    # (zero-copy shard slices) instead of gathering (see repro.device.fleet).
    in_order = Partition(np.arange(n_train), parts.offsets, n_train)
    devices = make_fleet(train_set, in_order, unit_times, trainer)

    config = entry.config_cls(
        rounds=spec.rounds,
        participation=spec.participation,
        local_epochs=spec.local_epochs,
        eval_every=spec.eval_every,
        seed=spec.seed + 6,
        **_forwarded_optional(spec, entry.config_cls),
        **spec.method_kwargs,
    )
    environment = ENVIRONMENTS.make(spec.env, **spec.env_kwargs)
    server = entry.server_cls(
        devices, test_set, config, logger=logger, env=environment
    )
    if spec.selection is not None:
        fraction = (
            spec.selection_fraction
            if spec.selection_fraction is not None
            else spec.participation
        )
        server.selection_policy = make_policy(spec.selection, fraction)
    if spec.codec != "none" or spec.codec_kwargs:
        # Codec-private rng stream: seeded off the experiment seed but
        # disjoint from the +0..+6 substrate streams, so switching codecs
        # never perturbs data/model/training randomness.
        server.codec = CODECS.make(
            spec.codec, **{"seed": spec.seed + 7, **spec.codec_kwargs}
        )
    if spec.faults != "none" or spec.fault_kwargs:
        # Fault draws run on their own (*, 200..202) seed streams —
        # disjoint from substrate (+0..+6) and codec (+7) randomness — so
        # arming a model that injects nothing perturbs nothing.
        faults = FAULT_MODELS.make(spec.faults, **spec.fault_kwargs)
        if not faults.is_null and not server.fault_aware:
            warnings.warn(
                f"method {spec.method!r} ignores the fault model "
                f"{spec.faults!r}: its round path injects no faults, so "
                "this run is fault-free",
                UserWarning,
                stacklevel=2,
            )
        server.set_faults(faults)
    if config.round_deadline is not None and not server.deadline_aware:
        warnings.warn(
            f"method {spec.method!r} ignores round_deadline="
            f"{config.round_deadline}: its round path never cuts a round, "
            "so this run waits for every participant",
            UserWarning,
            stacklevel=2,
        )
    if spec.transport != "sim" or spec.transport_kwargs:
        # The live backend needs the spec itself: worker processes rebuild
        # the whole substrate from it (same seeds -> identical shards,
        # model init and training streams).  Sockets open lazily at the
        # first broadcast, so building a live spec stays side-effect free.
        server.transport = TRANSPORTS.make(spec.transport, **spec.transport_kwargs)
        server.transport.bind(server, spec)
    return server


def _forwarded_optional(spec: ExperimentSpec, config_cls: type) -> dict[str, Any]:
    """The set ``_OPTIONAL`` spec fields ``config_cls`` defines and
    ``method_kwargs`` does not override: forwarded to the config and
    echoed on the result.  The rest are ignored — so one campaign grid
    over e.g. buffer_goal can include sync methods without erroring, and
    the result never claims a knob the run did not take."""
    cfg_fields = {f.name for f in fields(config_cls)} - spec.method_kwargs.keys()
    return {
        key: getattr(spec, key)
        for key in _OPTIONAL
        if getattr(spec, key) is not None and key in cfg_fields
    }


def run_experiment(spec: ExperimentSpec, logger: RunLogger | None = None):
    """Build and run; returns the :class:`~repro.simulation.results.RunResult`."""
    server = build_experiment(spec, logger=logger)
    try:
        result = server.fit()
    finally:
        # Live worker processes must die with the run, success or not.
        server.transport.shutdown()
    result.config.update(
        dataset=spec.dataset,
        partition=spec.partition,
        beta=spec.beta if spec.partition == "dirichlet" else None,
        num_devices=spec.num_devices,
        model_preset=spec.model_preset,
    )
    # Echo only what was moved off its default (env has none, so it is
    # always echoed).  The method's name (AXES[0]) is ``result.method``;
    # its kwargs are echoed like every axis's.
    for name_field, kwargs_field, default in AXES:
        if name_field != "method" and getattr(spec, name_field) != default:
            result.config[name_field] = getattr(spec, name_field)
        if getattr(spec, kwargs_field):
            result.config[kwargs_field] = dict(getattr(spec, kwargs_field))
    result.config.update(_forwarded_optional(spec, type(server.config)))
    if spec.selection is not None:
        result.config["selection"] = spec.selection
        result.config["selection_fraction"] = (
            spec.selection_fraction
            if spec.selection_fraction is not None
            else spec.participation
        )
    return result
