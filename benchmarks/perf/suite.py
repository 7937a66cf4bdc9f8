"""Microbenchmark definitions and the suite runner.

Three hot paths, matching where the reproduction spends its runtime:

* ``train_unit`` — one local-SGD training unit (``LocalTrainer.train``),
  the scalar path; a throughput row (``after_s`` only), since no live code
  path is its "before".
* ``aggregation`` — uniform + sample-weighted averaging of a device stack.
* ``fedhisyn_round`` — wall time per round of an end-to-end FedHiSyn run on
  Dirichlet-ragged ``lab`` shards, ring waves trained as stacks (the
  default) vs unit by unit (the scalar oracle, ``batched_trainer=None``),
  final weights compared first.

Fleet-scale round (5,000+ devices, the struct-of-arrays population):

* ``fedavg_round_batched`` — one round's training phase only, the
  stacked-GEMM batched engine (:mod:`repro.device.batched`) vs the
  sequential per-device loop on identical inputs and shuffle streams.
* ``fedavg_round_e2e`` — whole FedAvg rounds with *real* local training,
  one fleet server on its default batched engine vs the scalar oracle
  (``batched_trainer=None``): the honest end-to-end round number.
* ``fault_injection_overhead`` — the e2e workload on one server, armed
  null-rate fault model vs ``faults="none"``: the cost of the fault
  machinery when it injects nothing.  Here ``speedup`` reads as the
  overhead ratio (armed / unarmed); CI gates it under 1.02.

Compression layer (trajectory numbers; the codecs are new):

* ``codec_encode`` — encode+decode round-trip throughput of the lossy
  codecs (top-k with error feedback, QSGD) on a model-sized vector.
* ``codec_bytes_ratio`` — a small FedAvg run under the ``wan`` preset,
  dense vs top-k at 10%: per-round wall time of the compressed run plus
  the exact on-wire byte ratio the codec layer buys.

Live transport (trajectory number; the backend is new):

* ``live_transport_throughput`` — loopback UDP throughput of the live
  backend's chunk/ack/reassemble reliability layer on model-sized
  blobs: messages/s and payload MB/s.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.baselines.fedavg import FedAvgConfig, FedAvgServer
from repro.compression import QSGDCodec, TopKCodec
from repro.core.aggregation import sample_weighted_average, uniform_average
from repro.datasets.core import train_test_split
from repro.datasets.partition import partition_by_name
from repro.datasets.synthetic import mnist_like
from repro.device.batched import BatchedTrainer
from repro.device.device import LocalTrainer
from repro.device.fleet import make_fleet
from repro.device.heterogeneity import sample_unit_counts, unit_times_from_counts
from repro.env.environment import Environment
from repro.experiments import ExperimentSpec, build_experiment, run_experiment
from repro.faults import NoFaults, make_fault_model
from repro.nn.batched import stacked_gemm_is_bitwise
from repro.nn.models import paper_mlp
from repro.simulation.metrics import ResilienceStats
from repro.nn.serialization import get_flat_params
from repro.simulation.events import EventQueue
from repro.simulation.scheduler import UNIT_COMPLETE, Scheduler

__all__ = ["PerfScale", "SCALES", "run_suite"]


@dataclass(frozen=True)
class PerfScale:
    """Workload dimensions for one suite run."""

    name: str
    repeats: int  # best-of repetitions per timed call
    feature_dim: int
    num_classes: int
    hidden: tuple[int, int]
    shard_size: int
    batch_size: int
    epochs: int  # epochs per train unit (the paper's local_epochs)
    agg_devices: int
    round_devices: int
    round_samples: int
    rounds: int
    # Fleet-scale round benches (batched training, e2e, fault overhead).
    fleet_devices: int
    fleet_samples: int
    e2e_participation: float
    # Scheduler-throughput bench (the async runtime's hot loop).
    scheduler_devices: int
    scheduler_horizon: float
    # Million-device engine bench (calendar queue + batched waves).
    mega_sched_devices: int
    mega_sched_horizon: float


SCALES = {
    "quick": PerfScale(
        name="quick",
        repeats=11,
        feature_dim=64,
        num_classes=10,
        hidden=(48, 24),
        shard_size=250,
        batch_size=50,
        epochs=5,
        agg_devices=20,
        round_devices=10,
        round_samples=600,
        rounds=2,
        fleet_devices=5000,
        fleet_samples=12500,
        e2e_participation=0.1,
        scheduler_devices=5000,
        scheduler_horizon=2.0,
        mega_sched_devices=1_000_000,
        mega_sched_horizon=0.5,
    ),
    "full": PerfScale(
        name="full",
        repeats=15,
        feature_dim=64,
        num_classes=10,
        hidden=(200, 100),
        shard_size=1000,
        batch_size=50,
        epochs=5,
        agg_devices=100,
        round_devices=20,
        round_samples=1500,
        rounds=5,
        fleet_devices=10000,
        fleet_samples=25000,
        e2e_participation=0.1,
        scheduler_devices=5000,
        scheduler_horizon=5.0,
        mega_sched_devices=1_000_000,
        mega_sched_horizon=1.0,
    ),
}


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time over ``repeats`` calls (one warmup call first)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _best_pair(fn_after, fn_before, repeats: int) -> tuple[float, float]:
    """Interleaved best-of timing for an (after, before) pair.

    Alternating the two sides each iteration means load spikes and
    frequency drift hit both measurements alike, which stabilizes the
    ratio far better than timing each side in its own block.
    """
    fn_after()
    fn_before()
    best_after = best_before = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_after()
        best_after = min(best_after, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_before()
        best_before = min(best_before, time.perf_counter() - t0)
    return best_after, best_before


def _pair(before_s: float, after_s: float, **detail) -> dict:
    entry = {
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }
    if detail:
        entry["detail"] = detail
    return entry


def _bench_train_unit(scale: PerfScale) -> dict:
    """One local-SGD training unit (``LocalTrainer.train``): the scalar
    path every wave of one and every unstackable model takes."""
    model = paper_mlp(
        scale.feature_dim, scale.num_classes, seed=0, hidden=scale.hidden
    )
    shard = mnist_like(
        num_samples=scale.shard_size, seed=1, feature_dim=scale.feature_dim
    )
    trainer = LocalTrainer(model, lr=0.1, batch_size=scale.batch_size, seed=2)
    w0 = get_flat_params(model)
    out = np.empty_like(w0)

    def unit() -> int:
        return trainer.train(w0, shard, scale.epochs, stream_key=(7,), out=out)[1]

    steps = unit()
    after = _best_of(unit, scale.repeats)
    return {
        "after_s": after,
        "detail": {"dim": trainer.dim, "sgd_steps": steps, "steps_per_s": steps / after},
    }


def _bench_aggregation(scale: PerfScale) -> dict:
    model = paper_mlp(
        scale.feature_dim, scale.num_classes, seed=0, hidden=scale.hidden
    )
    dim = model.dim
    rng = np.random.default_rng(4)
    stack = rng.normal(size=(scale.agg_devices, dim))
    counts = rng.integers(10, 200, size=scale.agg_devices)

    def agg() -> None:
        uniform_average(stack)
        sample_weighted_average(stack, counts)

    after = _best_of(agg, scale.repeats)
    return {"after_s": after, "detail": {"devices": scale.agg_devices, "dim": dim}}


def _bench_fedhisyn_round(scale: PerfScale) -> dict:
    """FedHiSyn rounds on the paper's ragged shards, one server toggled
    between stacked ring waves and the scalar oracle (``batched_trainer =
    None``: every unit one ``LocalTrainer.train`` call).

    The ``lab`` population (100 devices) under the Dirichlet(0.3) split
    holds about as many distinct shard sizes as devices, so nothing stacks
    by shard size; the waves stack by full mini-batch.  The two runs must
    end on the same weights — exactly where the BLAS canary holds, to
    1e-12 otherwise — before any timing is trusted.
    """
    spec = ExperimentSpec(
        method="fedhisyn",
        dataset="mnist_like",
        fleet_profile="lab",
        num_samples=20 * scale.round_samples,
        rounds=scale.rounds,
        seed=0,
        method_kwargs={"num_classes": 5},
    )
    server = build_experiment(spec)
    initial = server.global_weights.copy()
    batched = server.batched_trainer

    def _fit(batched_trainer) -> object:
        # Reset per-run state so every fit() measures identical work; the
        # build cost stays outside the timed region.
        _reset_server(server)
        server.batched_trainer = batched_trainer
        return server.fit(initial_weights=initial)

    w_after, w_before = _fit(batched).final_weights, _fit(None).final_weights
    max_abs = float(np.max(np.abs(w_after - w_before)))
    if stacked_gemm_is_bitwise():
        assert max_abs == 0.0, max_abs
    else:
        np.testing.assert_allclose(w_after, w_before, rtol=1e-12, atol=1e-12)

    after, before = _best_pair(
        lambda: _fit(batched), lambda: _fit(None), max(2, scale.repeats // 3)
    )
    sizes = server.fleet.num_samples
    return _pair(
        before / scale.rounds,
        after / scale.rounds,
        rounds=scale.rounds,
        devices=len(sizes),
        samples=int(sizes.sum()),
        distinct_shard_sizes=len(set(sizes.tolist())),
        max_abs_diff=max_abs,
    )


def _fleet_substrate(scale: PerfScale):
    """Shared data/partition/heterogeneity for the fleet-scale benches."""
    dataset = mnist_like(
        num_samples=scale.fleet_samples, seed=11, feature_dim=scale.feature_dim
    )
    train_set, test_set = train_test_split(dataset, 0.04, seed=12)
    parts = partition_by_name("iid", train_set, scale.fleet_devices, seed=13)
    counts = sample_unit_counts(scale.fleet_devices, 1, 10, seed=14)
    return train_set, test_set, parts, unit_times_from_counts(counts)


def _fleet_server(scale: PerfScale, rounds: int):
    """``(server, w0)``: a FedAvg server over the fleet-scale population
    (ideal environment, the default batched training engine)."""
    model = paper_mlp(scale.feature_dim, scale.num_classes, seed=0, hidden=(32, 16))
    trainer = LocalTrainer(model, lr=0.1, batch_size=50, seed=2)
    train_set, test_set, parts, unit_times = _fleet_substrate(scale)
    fleet = make_fleet(train_set, parts, unit_times, trainer)
    config = FedAvgConfig(
        rounds=rounds,
        participation=scale.e2e_participation,
        local_epochs=1,
        eval_every=rounds,
        seed=3,
    )
    server = FedAvgServer(fleet, test_set, config, env=Environment.ideal())
    return server, get_flat_params(trainer.model)


def _reset_server(server) -> None:
    """Fresh per-run mutable state so repeated fits measure identical work."""
    server.history = type(server.history)()
    server.clock = type(server.clock)()
    server.meter = type(server.meter)()
    server.unavailable_count = 0


def _bench_fedavg_e2e(scale: PerfScale) -> dict:
    """The honest end-to-end round: one fleet server, its default batched
    training engine vs the scalar oracle ``batched_trainer=None`` (the
    sequential per-device loop).

    Since BLAS builds may compute a stacked GEMM slice with different
    instruction selection than its 2-D equivalent, the finals are asserted
    equal to 1e-12 relative (bit-identical on builds where the slices
    match — the common case, pinned by the nn test suite) before any
    timing is trusted."""
    rounds = 2
    server, w0 = _fleet_server(scale, rounds)
    fleet = server.fleet
    batched = server.batched_trainer
    assert batched is not None

    def _fit(batched_trainer) -> object:
        _reset_server(server)
        server.batched_trainer = batched_trainer
        return server.fit(initial_weights=w0)

    res_after, res_before = _fit(batched), _fit(None)
    np.testing.assert_allclose(
        res_after.final_weights, res_before.final_weights,
        rtol=1e-12, atol=1e-12,
    )
    assert res_after.history.times == res_before.history.times

    repeats = max(5, scale.repeats // 4)
    after, before = _best_pair(
        lambda: _fit(batched), lambda: _fit(None), repeats
    )
    return _pair(
        before / rounds,
        after / rounds,
        devices=scale.fleet_devices,
        rounds=rounds,
        participation=scale.e2e_participation,
        fleet_state_mb=round(fleet.state_nbytes / 1e6, 3),
        fleet_rows=fleet.materialized_rows,
        dim=fleet.dim,
    )


def _bench_fedavg_round_batched(scale: PerfScale) -> dict:
    """The training phase of one FedAvg round, batched vs sequential.

    Isolates exactly what the batched engine replaces: the local-SGD loop
    over one round's selected participants (same ids, same epochs, same
    broadcast weights, same shuffle streams), with selection, channels and
    aggregation excluded.  Results are asserted equal (1e-12; bitwise on
    BLAS builds whose stacked-GEMM slices match their 2-D equivalents)
    before timing is trusted.
    """
    server, w0 = _fleet_server(scale, rounds=1)
    fleet, trainer = server.fleet, server.trainer
    ids = server.select_participants(1)
    epochs = server.epochs_for(ids, server.round_duration(ids))
    bt = BatchedTrainer(trainer, fleet)
    seq_stack = np.empty((len(ids), trainer.dim))
    bat_stack = np.empty((len(ids), trainer.dim))

    def run_seq() -> None:
        shard = fleet.shard
        for i, dev_id in enumerate(ids.tolist()):
            trainer.train(
                w0, shard(dev_id), int(epochs[i]),
                stream_key=(dev_id, 1, 0), out=seq_stack[i],
            )

    def run_bat() -> None:
        bt.train_round(ids, epochs, 1, w0, out=bat_stack)

    run_seq()
    run_bat()
    np.testing.assert_allclose(bat_stack, seq_stack, rtol=1e-12, atol=1e-12)
    max_abs = float(np.max(np.abs(bat_stack - seq_stack)))

    after, before = _best_pair(run_bat, run_seq, max(3, scale.repeats // 3))
    cohorts = {
        (int(n), int(e)) for n, e in zip(fleet.num_samples[ids], epochs)
    }
    return _pair(
        before,
        after,
        devices=scale.fleet_devices,
        participants=len(ids),
        participation=scale.e2e_participation,
        dim=trainer.dim,
        cohorts=len(cohorts),
        sgd_steps=int(np.sum(epochs * np.ceil(fleet.num_samples[ids] / 50))),
        max_abs_diff=max_abs,
    )


def _bench_fault_overhead(scale: PerfScale) -> dict:
    """Cost of the armed-but-null fault machinery on the sync round path.

    Same end-to-end FedAvg workload as ``fedavg_round_e2e``, one server,
    toggled between ``faults="none"`` (``charge_round``'s bare fast path)
    and an armed compound model with every rate zeroed — the full
    per-round effects draw and completion-time bookkeeping, injecting
    nothing.  The two runs are asserted bitwise equal first (the
    armed-null identity contract), so the pair's ``speedup`` field is the
    pure overhead ratio armed / unarmed; CI asserts it stays under 1.02.
    """
    rounds = 2
    server, w0 = _fleet_server(scale, rounds)
    null_model = make_fault_model(
        "compound", crash_prob=0.0, straggle_prob=0.0, fraction=0.0
    )

    def _fit(faults) -> object:
        _reset_server(server)
        server.resilience = ResilienceStats()
        server.set_faults(faults)
        return server.fit(initial_weights=w0)

    res_armed = _fit(null_model)
    res_plain = _fit(NoFaults())
    np.testing.assert_array_equal(
        res_armed.final_weights, res_plain.final_weights
    )
    assert res_armed.history.times == res_plain.history.times

    # Best-of timing is the wrong tool for a ratio expected to be ~1.00:
    # the two minima bottom out on different transients and the quotient
    # of two noisy floors swings +-3%.  Interleaved pairs with a *median*
    # per side cancels drift and keeps the ratio stable well inside the
    # 2% CI gate.
    repeats = max(9, scale.repeats)
    armed_t: list[float] = []
    plain_t: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _fit(null_model)
        armed_t.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        _fit(NoFaults())
        plain_t.append(time.perf_counter() - t0)
    armed = sorted(armed_t)[repeats // 2]
    unarmed = sorted(plain_t)[repeats // 2]
    return _pair(
        armed / rounds,
        unarmed / rounds,
        devices=scale.fleet_devices,
        rounds=rounds,
        participation=scale.e2e_participation,
        repeats=repeats,
        overhead_pct=round((armed / unarmed - 1.0) * 100, 3),
    )


def _sched_events_per_device(num_devices: int, unit_times, horizon: float) -> int:
    """The seed path: one heap entry per device completion, on the
    reference binary-heap queue."""
    sched = Scheduler()
    sched.queue = EventQueue()

    def on_complete(ev) -> None:
        dev = ev.payload
        nxt = ev.time + unit_times[dev]
        if nxt <= horizon:
            sched.at(nxt, UNIT_COMPLETE, dev)

    sched.on(UNIT_COMPLETE, on_complete)
    for dev in range(num_devices):
        sched.at(float(unit_times[dev]), UNIT_COMPLETE, dev)
    sched.run()
    return sched.events_processed


def _sched_events_batched(num_devices: int, unit_times, horizon: float) -> int:
    """The million-device path: calendar queue + one batched event per
    completion wave (devices sharing a maturity time), mirroring how the
    async server packs the quantized unit-time schedule."""
    sched = Scheduler()

    def on_complete(ev) -> None:
        ids = ev.payload
        nxt = ev.time + unit_times[ids]
        keep = nxt <= horizon
        if not keep.any():
            return
        ids = ids[keep]
        nxt = nxt[keep]
        for t in np.unique(nxt):
            sched.at_many(float(t), UNIT_COMPLETE, ids[nxt == t])

    sched.on(UNIT_COMPLETE, on_complete)
    for t in np.unique(unit_times):
        sched.at_many(float(t), UNIT_COMPLETE, np.flatnonzero(unit_times == t))
    sched.run()
    return sched.events_processed


def _bench_scheduler_events(scale: PerfScale) -> dict:
    """Discrete-event engine throughput at fleet scale, before/after.

    Replays the async runtime's hot loop — every device of a
    ``scheduler_devices``-sized fleet continuously completing and
    rescheduling training units over a virtual horizon — with the
    training itself stubbed out, so the pair is pure event machinery.
    Before: the seed engine (binary heap, one event per device
    completion).  After: the calendar queue with batched completion
    waves.  Both sides dispatch the identical logical schedule (member
    counts are asserted equal); ``events_per_s`` counts members, so the
    throughput is packing-independent.
    """
    counts = sample_unit_counts(scale.scheduler_devices, 1, 10, seed=21)
    unit_times = unit_times_from_counts(counts)
    horizon = scale.scheduler_horizon
    n = scale.scheduler_devices

    events_before = _sched_events_per_device(n, unit_times, horizon)
    events_after = _sched_events_batched(n, unit_times, horizon)
    assert events_after == events_before, (
        f"batched schedule dispatched {events_after} members, "
        f"per-device dispatched {events_before}"
    )

    after_s, before_s = _best_pair(
        lambda: _sched_events_batched(n, unit_times, horizon),
        lambda: _sched_events_per_device(n, unit_times, horizon),
        max(3, scale.repeats // 3),
    )
    return _pair(
        before_s,
        after_s,
        devices=n,
        horizon=horizon,
        events=events_before,
        events_per_s=round(events_before / after_s, 1),
    )


def _bench_scheduler_events_1m(scale: PerfScale) -> dict:
    """The calendar+batched engine at a million devices (trajectory
    number; the seed engine is far too slow to pair at this size).
    ``events_per_s`` counts batched members individually."""
    counts = sample_unit_counts(scale.mega_sched_devices, 1, 10, seed=22)
    unit_times = unit_times_from_counts(counts)
    horizon = scale.mega_sched_horizon
    n = scale.mega_sched_devices

    events = _sched_events_batched(n, unit_times, horizon)
    best = _best_of(
        lambda: _sched_events_batched(n, unit_times, horizon),
        max(2, scale.repeats // 5),
    )
    return {
        "after_s": best,
        "detail": {
            "devices": n,
            "horizon": horizon,
            "events": events,
            "events_per_s": round(events / best, 1),
        },
    }


def _bench_codec_encode(scale: PerfScale) -> dict:
    """Lossy-codec round-trip throughput on a model-sized vector.

    One encode+decode per iteration against a fixed reference, so top-k
    exercises its error-feedback residual update and QSGD its stochastic
    rounding draw — the exact per-transfer work the channel adds.
    """
    model = paper_mlp(
        scale.feature_dim, scale.num_classes, seed=0, hidden=scale.hidden
    )
    dim = model.dim
    rng = np.random.default_rng(6)
    ref = rng.normal(size=dim)
    vec = ref + 0.01 * rng.normal(size=dim)
    iters = 50

    def roundtrip_s(codec) -> float:
        def run() -> None:
            for _ in range(iters):
                codec.decode(codec.encode(vec, key=0, reference=ref))

        return _best_of(run, scale.repeats) / iters

    topk_s = roundtrip_s(TopKCodec(fraction=0.1))
    qsgd_s = roundtrip_s(QSGDCodec(bits=4, seed=0))
    return {
        "after_s": topk_s,
        "detail": {
            "dim": dim,
            "topk_roundtrip_s": topk_s,
            "qsgd_roundtrip_s": qsgd_s,
            "topk_coords_per_s": round(dim / topk_s, 1),
            "qsgd_coords_per_s": round(dim / qsgd_s, 1),
        },
    }


def _bench_codec_bytes_ratio(scale: PerfScale) -> dict:
    """Dense vs top-k FedAvg under the ``wan`` preset.

    Times the compressed end-to-end run (per round) and reports the
    on-wire byte ratio between the two — the headline number the codec
    layer exists to buy.  Lossless accounting on both sides: raw bytes
    must match, only the wire representation differs.
    """
    base = dict(
        method="fedavg",
        dataset="mnist_like",
        num_samples=scale.round_samples,
        num_devices=scale.round_devices,
        rounds=scale.rounds,
        seed=0,
        env="wan",
    )
    dense_spec = ExperimentSpec(**base)
    topk_spec = ExperimentSpec(
        **base, codec="topk", codec_kwargs={"fraction": 0.1}
    )
    dense = run_experiment(dense_spec)
    topk = run_experiment(topk_spec)
    assert topk.transport["raw_bytes"] == dense.transport["raw_bytes"]
    ratio = dense.transport["wire_bytes"] / topk.transport["wire_bytes"]

    total = _best_of(
        lambda: run_experiment(topk_spec), max(1, scale.repeats // 5)
    )
    return {
        "after_s": total / scale.rounds,
        "detail": {
            "rounds": scale.rounds,
            "devices": scale.round_devices,
            "bytes_ratio": round(ratio, 2),
            "dense_wire_bytes": int(dense.transport["wire_bytes"]),
            "topk_wire_bytes": int(topk.transport["wire_bytes"]),
        },
    }


def _bench_live_transport(scale: PerfScale) -> dict:
    """Loopback UDP throughput of the live transport's reliability layer.

    Two endpoints in one process, pumped alternately: one model-sized
    blob per message, chunked/acked/reassembled exactly as a live run's
    MODEL/UPDATE legs are.  Reports messages/s and payload MB/s — the
    ceiling the framed-datagram protocol puts on live-run round rate.
    """
    from repro.transport.endpoint import Endpoint
    from repro.transport.frames import MSG_MODEL

    model = paper_mlp(
        scale.feature_dim, scale.num_classes, seed=0, hidden=scale.hidden
    )
    blob = np.random.default_rng(8).normal(size=model.dim).tobytes()
    messages = 40

    def ship() -> None:
        sender = Endpoint(rank=0, chunk_bytes=1200, rto=0.05)
        receiver = Endpoint(rank=1, chunk_bytes=1200, rto=0.05)
        got = []
        receiver.on(MSG_MODEL, lambda f, p, a: got.append(len(p)))
        try:
            addr = ("127.0.0.1", receiver.port)
            for i in range(messages):
                sender.send_blob(MSG_MODEL, addr, blob, round_idx=i, dim=model.dim)
                while sender.pending_sends:
                    receiver.pump(timeout=0.001)
                    sender.pump(timeout=0.0)
            assert len(got) == messages and got[0] == len(blob)
        finally:
            sender.close()
            receiver.close()

    best = _best_of(ship, max(3, scale.repeats // 3))
    per_message = best / messages
    return {
        "after_s": per_message,
        "detail": {
            "dim": model.dim,
            "payload_bytes": len(blob),
            "messages": messages,
            "messages_per_s": round(1.0 / per_message, 1),
            "payload_mb_per_s": round(len(blob) / per_message / 1e6, 2),
        },
    }


def run_suite(scale_name: str = "quick", repeats: int | None = None) -> dict:
    """Run every benchmark at ``scale_name``; returns the JSON-ready report."""
    scale = SCALES[scale_name]
    if repeats is not None:
        scale = PerfScale(**{**asdict(scale), "repeats": repeats})
    benchmarks = {
        "train_unit": _bench_train_unit(scale),
        "aggregation": _bench_aggregation(scale),
        "fedhisyn_round": _bench_fedhisyn_round(scale),
        "fedavg_round_batched": _bench_fedavg_round_batched(scale),
        "fedavg_round_e2e": _bench_fedavg_e2e(scale),
        "fault_injection_overhead": _bench_fault_overhead(scale),
        "scheduler_events": _bench_scheduler_events(scale),
        "scheduler_events@1M": _bench_scheduler_events_1m(scale),
        "codec_encode": _bench_codec_encode(scale),
        "codec_bytes_ratio": _bench_codec_bytes_ratio(scale),
        "live_transport_throughput": _bench_live_transport(scale),
    }
    return {
        "schema": 1,
        "scale": scale.name,
        "config": asdict(scale),
        "benchmarks": benchmarks,
    }
