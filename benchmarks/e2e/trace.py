"""Per-layer tracing from outside ``src/``: wrap callables by attribute.

Nothing under ``src/`` is edited.  :class:`Tracer` replaces attributes —
module globals (wherever ``global is target``), class attributes, bound
methods on the built server — with wrappers that record a span (name,
start, end, parent, run id) in memory, and puts every attribute back in
:meth:`Patcher.restore`.  A layer's *self time* is its spans' duration
minus the part their child spans cover, so layer times add up to at most
the wall-clock and the remainder is reported as unattributed.

Span names are the layer-metric stems of :mod:`benchmarks.e2e.metrics`
(``datasets.partition`` feeds ``datasets.partition_s``); ``phase.*`` spans
mark the child's own phases and count as unattributed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

__all__ = ["Patcher", "Tracer", "install", "instrument_server", "layer_metrics"]

_MISSING = object()
_clock = time.monotonic

#: Scheduler event kinds whose handlers belong to the barrier round; every
#: other kind's handler is the event loop's: ``core.async.<kind>``.
_ROUND_KINDS = ("round_barrier", "eval_checkpoint")


class Patcher:
    """Replaces attributes and remembers how to put them back."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` (module, class or instance) to ``replacement``."""
        previous = vars(owner).get(attr, _MISSING)
        if isinstance(previous, classmethod):
            # Looked up on the class the original arrives bound; keep the
            # replacement from being re-bound to an instance.
            replacement = staticmethod(replacement)
        self._undo.append((owner, attr, previous))
        setattr(owner, attr, replacement)

    def patch_globals(self, module: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``module.attr`` in every loaded ``repro`` module that
        imported it (``from x import f`` copies the reference)."""
        target = getattr(module, attr)
        replacement = make(target)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is target:
                    self.patch(mod, key, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    @property
    def patched(self) -> list[tuple[Any, str]]:
        return [(owner, attr) for owner, attr, _ in self._undo]


class Tracer(Patcher):
    """In-memory span recorder; written out when the child ends."""

    def __init__(self) -> None:
        super().__init__()
        # [name, start, end, parent index or -1, run id]
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """A span around a block of the child's own code."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, _clock(), 0.0, stack[-1] if stack else -1, self.run_id])
        stack.append(idx)
        try:
            yield
        finally:
            spans[idx][2] = _clock()
            stack.pop()

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        """``fn`` with a span around every call; ``count(counts, args,
        kwargs)`` adds work counters measured at the same boundary."""
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, _clock(), 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = _clock()
                stack.pop()
                if count is not None:
                    count(counts, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def trace(self, owner: Any, attr: str, name: str, count: Callable | None = None) -> None:
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def trace_globals(self, module: Any, attr: str, name: str) -> None:
        self.patch_globals(module, attr, lambda fn: self.wrap(fn, name))

    # ------------------------------------------------------------ accounting

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """(self seconds, span count) per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            seconds[name] += (end - start) - covered[i]
            calls[name] += 1
        return seconds, calls

    def totals(self, prefix: str) -> dict[str, float]:
        """Inclusive seconds per span name under ``prefix``."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            if name.startswith(prefix):
                out[name] += end - start
        return out

    def write(self, path: str, header: dict[str, Any], origin: float) -> None:
        """One JSON object per line: the header, then every span with
        times in seconds since the child was spawned."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "spans": len(self.spans)}) + "\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(
                    f'{{"i":{i},"name":"{name}","start":{start - origin:.7f},'
                    f'"end":{end - origin:.7f},"parent":{parent},"run":{run}}}\n'
                )


# ------------------------------------------------------------------ install


def install(tracer: Tracer) -> None:
    """Module-global and class-level patches; call after ``import repro``
    and before the first ``build_experiment``."""
    import repro.campaign
    import repro.core.aggregation as aggregation
    import repro.core.clustering
    import repro.core.ring
    import repro.datasets
    import repro.device
    from repro.simulation.results import RunResult
    from repro.simulation.scheduler import Scheduler

    tracer.trace_globals(repro.datasets, "make_dataset", "datasets.synth")
    tracer.trace_globals(repro.datasets, "train_test_split", "datasets.synth")
    tracer.trace_globals(repro.datasets, "partition_by_name", "datasets.partition")
    tracer.trace_globals(repro.device, "make_fleet", "device.fleet_build")
    tracer.trace_globals(repro.core.clustering, "cluster_by_capacity", "core.cluster_ring")
    tracer.trace_globals(repro.core.ring, "build_rings", "core.cluster_ring")
    for attr in aggregation.__all__:
        if callable(getattr(aggregation, attr)):
            tracer.trace_globals(aggregation, attr, "core.aggregate")

    # The scheduler is built inside fit(), so its handlers are caught where
    # they are registered and its loop at class level.
    scheduler_on = Scheduler.on

    def on(self, kind, handler):
        name = "core.round" if kind in _ROUND_KINDS else f"core.async.{kind}"
        scheduler_on(self, kind, tracer.wrap(handler, name))

    tracer.patch(Scheduler, "on", on)
    tracer.trace(Scheduler, "run", "simulation.scheduler")
    tracer.trace(RunResult, "to_dict", "campaign.result_io")
    tracer.trace(RunResult, "from_dict", "campaign.result_io")

    # Campaign cells (the serial traced pass): one span per run_experiment,
    # named after the method; each cell is its own run id.
    def cell(run_experiment):
        def traced_cell(spec, *args, **kwargs):
            tracer.run_id += 1
            with tracer.span(f"campaign.cell.{spec.method}"):
                return run_experiment(spec, *args, **kwargs)

        return traced_cell

    # Only the campaign's reference: a direct run_experiment is not a cell.
    tracer.patch(repro.campaign, "run_experiment", cell(repro.campaign.run_experiment))


def _count_unit(counts, args, kwargs) -> None:
    # LocalTrainer.train(weights, shard, epochs, ...)
    shard = kwargs["shard"] if "shard" in kwargs else args[1]
    epochs = kwargs["epochs"] if "epochs" in kwargs else args[2]
    counts["device.train_samples"] += len(shard) * int(epochs)


def instrument_server(tracer: Tracer, server: Any) -> None:
    """Bound-method patches on one built server and the objects it owns."""
    trainer = server.trainer
    tracer.trace(trainer, "train", "device.unit_train", _count_unit)
    tracer.trace(server.transport, "train_round", "device.batched_train")
    batched = server.batched_trainer
    if batched is not None:
        sizes = server.fleet.num_samples

        def count_batch(counts, args, kwargs):
            # BatchedTrainer.train_round(ids, epochs, ...)
            counts["device.train_samples"] += float((sizes[args[0]] * args[1]).sum())

        tracer.trace(batched, "train_round", "device.batched_train", count_batch)

    for attr, name in (
        ("evaluate", "nn.eval"),
        ("select_participants", "core.select"),
        ("broadcast_model", "core.channel"),
        ("collect_models", "core.channel"),
        ("charge_round", "faults.round"),
        ("run_round", "core.round"),
    ):
        tracer.trace(server, attr, name)
    if hasattr(server, "apply_upload"):
        tracer.trace(server, "apply_upload", "core.async_apply")
    if hasattr(server, "engine"):
        tracer.trace(server.engine, "run_round", "simulation.ring_engine")

    env = server.env
    tracer.trace(env, "available_ids", "env.availability")
    tracer.trace(env, "online_mask_ids", "env.availability")
    tracer.trace(env, "server_transfer_time_ids", "env.transfer")
    if not env.network.is_instant:
        tracer.trace(env.network, "transfer_time", "env.transfer")
        tracer.trace(env.network, "server_transfer_times", "env.transfer")
    if not server.codec.is_identity:
        tracer.trace(server.codec, "encode", "compression.encode")
        tracer.trace(server.codec, "decode", "compression.decode")
    if not server.faults.is_null:
        tracer.trace(server.faults, "round_effects", "faults.round")


# ------------------------------------------------------------------ metrics


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """The span-derived rows of the per-layer ledger for one traced child
    whose spawn -> report wall-clock was ``wall`` seconds."""
    seconds, calls = tracer.self_times()
    # Every span name is a layer-metric stem: <name>_s is its self time.
    # (Names the ledger does not list — phases, cell wrappers — are dropped
    # by the parent; layers that never ran read as 0 there.)
    out: dict[str, float] = {f"{name}_s": s for name, s in seconds.items()}
    out["device.unit_train_calls"] = calls.get("device.unit_train", 0)
    out["device.train_samples"] = tracer.counts.get("device.train_samples", 0.0)
    out["nn.eval_calls"] = calls.get("nn.eval", 0)
    out["compression.calls"] = calls.get("compression.encode", 0) + calls.get(
        "compression.decode", 0
    )
    for name, total in tracer.totals("campaign.cell.").items():
        out[name.replace("campaign.cell.", "campaign.cell_s.")] = total
    attributed = sum(s for name, s in seconds.items() if not name.startswith("phase."))
    out["trace.unattributed_frac"] = max(0.0, 1.0 - attributed / wall) if wall > 0 else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
