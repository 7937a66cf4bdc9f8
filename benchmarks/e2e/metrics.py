"""The metric tables: every name the benchmark prints, defined once.

``E2E`` is what a user of ``repro run`` / ``repro sweep`` pays or gets;
each carries the regression bound (share of the parent's median by which
it may worsen).  The driver applies a bound to medians of ten invocations on
ten *different* seeds, so each is three times the widest spread (IQR / median)
measured that way here, capped at the contract's 0.25 (README, "Bounds").  ``LAYERS`` is the per-layer ledger of the traced run;
each row says which boundary is timed from outside, which end-to-end
metric it should move and on which workload — written down before any
optimisation is measured against it.  ``BENCHMARK.json`` is generated
from these tables (``python -m benchmarks.e2e --write``).
"""

from __future__ import annotations

from dataclasses import dataclass

from benchmarks.e2e.workloads import SWEEP_METHODS

__all__ = ["E2EMetric", "LayerMetric", "E2E", "LAYERS", "SIMULATED", "HOW_THEY_INTERACT"]


@dataclass(frozen=True)
class E2EMetric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which it may worsen.  None: too
    #: seed-sensitive for a relative bound (see ``vtime_to_target``) — still
    #: printed and compared exactly per seed, but listed under ``per_layer``
    #: in ``BENCHMARK.json``, which carries no bound.
    bound: float | None
    definition: str


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    boundary: str  # what is timed/counted, from outside src/
    moves: str  # the end-to-end metric(s) it should move
    on: str  # workload(s) where it matters
    near_zero_on: str  # workload(s) where the prediction is "no change"


#: Deterministic for a fixed seed: a change meant only to make the simulator
#: faster must leave these bit-identical (``compare`` checks them).
SIMULATED = ("final_accuracy", "vtime_to_target", "wire_mb")

E2E: tuple[E2EMetric, ...] = (
    E2EMetric("run_wall_s", "s", "lower", 0.25,
              "host: child spawn -> report JSON serialized (interpreter + import + build + fit "
              "+ eval + report)"),
    E2EMetric("setup_s", "s", "lower", 0.25,
              "host: child spawn -> build_experiment returned (sweep: -> Campaign.run entered); "
              "includes interpreter start and `import repro.cli`"),
    E2EMetric("fit_s", "s", "lower", 0.25,
              "host: server.fit() (sweep: Campaign.run)"),
    E2EMetric("cpu_s", "s", "lower", 0.25,
              "host: user+sys CPU of the child and its descendants (RUSAGE_SELF + "
              "RUSAGE_CHILDREN); separates 'less work' from 'more overlap'"),
    E2EMetric("updates_per_s", "1/s", "higher", 0.25,
              "model uploads + ring hops in uncompressed model units (transport.raw_up + "
              "transport.raw_peer, summed over sweep cells; simulated, exact) / fit_s"),
    E2EMetric("peak_rss_mb", "MB", "lower", 0.12,
              "host: max ru_maxrss over the child and its descendants"),
    E2EMetric("final_accuracy", "fraction", "higher", 0.06,
              "simulated: RunResult.final_accuracy (sweep: mean of per-method final_mean)"),
    # A whole number of rounds on the barrier methods (1 or 2 on ring_lab, 2 or
    # 3 on the sweep), so its spread across seeds is 0 or 50%: unbounded.
    E2EMetric("vtime_to_target", "vtime", "lower", None,
              "simulated: RunResult.time_to_target(target) in virtual time units (sweep: "
              "FedHiSyn's vtime_mean); never reached => the run counts as failed"),
    E2EMetric("wire_mb", "MB", "lower", 0.16,
              "simulated: transport.wire_bytes / 1e6 (sweep: sum over cells)"),
)

_ASYNC_KINDS = ("unit_complete", "upload_arrival", "broadcast_arrival", "availability_change")

LAYERS: tuple[LayerMetric, ...] = (
    LayerMetric("datasets.synth_s", "s", "lower", "make_dataset + train_test_split",
                "setup_s", "metro_wan, ring_lab", "async_churn"),
    LayerMetric("datasets.partition_s", "s", "lower", "partition_by_name",
                "setup_s, run_wall_s", "metro_wan (~2/3 of wall)", "all others (<1%)"),
    LayerMetric("device.fleet_build_s", "s", "lower", "make_fleet",
                "setup_s", "metro_wan, ring_lab (60k-sample gather)", "async_churn"),
    LayerMetric("device.unit_train_s", "s", "lower", "LocalTrainer.train on server.trainer",
                "fit_s, updates_per_s", "ring_lab (~95% of fit), async_churn (~70%)",
                "metro_wan (batching engages)"),
    LayerMetric("device.unit_train_calls", "count", "lower", "LocalTrainer.train calls",
                "fit_s, updates_per_s", "ring_lab, async_churn", "metro_wan"),
    LayerMetric("device.batched_train_s", "s", "lower", "server.transport.train_round",
                "fit_s", "metro_wan, table1_sweep (fedavg/fedprox/tfedavg cells)",
                "ring_lab, async_churn"),
    LayerMetric("device.train_samples", "count", "lower",
                "shard samples x epochs handed to either trainer",
                "fit_s", "all", "-"),
    LayerMetric("device.state_mb", "MB", "lower", "server.fleet.state_nbytes() after fit",
                "peak_rss_mb", "metro_wan (retained rows)", "ring_lab (recycled arena)"),
    LayerMetric("nn.eval_s", "s", "lower", "server.evaluate",
                "fit_s", "async_churn (time checkpoints), ring_lab (12k-sample test set)", "-"),
    LayerMetric("nn.eval_calls", "count", "lower", "server.evaluate calls",
                "fit_s", "async_churn", "-"),
    LayerMetric("core.select_s", "s", "lower", "select_participants self",
                "fit_s", "metro_wan (6000-device draw)", "ring_lab"),
    LayerMetric("core.cluster_ring_s", "s", "lower", "cluster_by_capacity + build_rings",
                "fit_s", "ring_lab, table1_sweep (fedhisyn cells)", "metro_wan, async_churn"),
    LayerMetric("core.channel_s", "s", "lower",
                "broadcast_model + collect_models self (codec excluded)",
                "fit_s", "metro_wan", "ring_lab"),
    LayerMetric("core.aggregate_s", "s", "lower",
                "the repro.core.aggregation functions, patched in every importing module",
                "fit_s", "metro_wan, table1_sweep", "async_churn"),
    LayerMetric("core.round_s", "s", "lower",
                "run_round + the round_barrier/eval_checkpoint handlers, self time",
                "fit_s", "metro_wan, table1_sweep", "async_churn"),
    LayerMetric("core.async_apply_s", "s", "lower", "apply_upload",
                "fit_s", "async_churn", "sync workloads"),
    *(
        LayerMetric(f"core.async.{kind}_s", "s", "lower",
                    f"{kind} handler self time, captured by wrapping Scheduler.on",
                    "fit_s, updates_per_s", "async_churn (~15% with the scheduler)",
                    "sync workloads")
        for kind in _ASYNC_KINDS
    ),
    LayerMetric("simulation.ring_engine_s", "s", "lower", "RingRoundEngine.run_round self",
                "fit_s", "ring_lab (~4%)", "metro_wan, async_churn"),
    LayerMetric("simulation.scheduler_s", "s", "lower", "Scheduler.run self",
                "fit_s", "async_churn", "sync workloads (one barrier per round)"),
    LayerMetric("simulation.events", "count", "lower", "server.scheduler.events_processed",
                "fit_s", "async_churn", "sync workloads"),
    LayerMetric("simulation.us_per_event", "us", "lower",
                "(scheduler self + async handler self) / events",
                "fit_s", "async_churn", "sync workloads"),
    LayerMetric("env.availability_s", "s", "lower",
                "Environment.available_ids / online_mask_ids",
                "fit_s", "async_churn (churn epochs)", "ring_lab, metro_wan (always-on)"),
    LayerMetric("env.transfer_s", "s", "lower",
                "Environment.server_transfer_time_ids + network transfer times",
                "fit_s", "metro_wan", "ring_lab (ideal)"),
    LayerMetric("compression.encode_s", "s", "lower", "server.codec.encode",
                "fit_s", "metro_wan", "the three dense workloads (identity fast path)"),
    LayerMetric("compression.decode_s", "s", "lower", "server.codec.decode",
                "fit_s", "metro_wan", "the three dense workloads"),
    LayerMetric("compression.calls", "count", "lower", "encode + decode calls",
                "fit_s", "metro_wan", "the three dense workloads"),
    LayerMetric("compression.ratio", "ratio", "higher", "transport raw_bytes / wire_bytes",
                "wire_mb", "metro_wan", "the three dense workloads (exactly 1)"),
    LayerMetric("faults.round_s", "s", "lower",
                "charge_round self + FaultModel.round_effects",
                "fit_s", "metro_wan", "fault-free workloads"),
    LayerMetric("faults.slowdowns", "count", "lower", "RunResult.resilience.injected_slowdowns",
                "vtime_to_target", "metro_wan", "fault-free workloads"),
    LayerMetric("faults.deadline_hits", "count", "lower", "RunResult.resilience.deadline_hits",
                "vtime_to_target", "metro_wan", "fault-free workloads"),
    LayerMetric("faults.dropped_updates", "count", "lower",
                "RunResult.resilience.dropped_updates",
                "vtime_to_target, final_accuracy", "metro_wan", "fault-free workloads"),
    LayerMetric("campaign.expand_s", "s", "lower", "repro.campaign.sweep",
                "setup_s", "table1_sweep", "single-run workloads"),
    LayerMetric("campaign.run_s", "s", "lower",
                "Campaign.run at the workload's worker count (the untraced child)",
                "run_wall_s", "table1_sweep", "single-run workloads"),
    *(
        LayerMetric(f"campaign.cell_s.{method}", "s", "lower",
                    f"run_experiment of the {method} cells, run serially in the traced pass",
                    "cpu_s, run_wall_s", "table1_sweep", "single-run workloads")
        for method in SWEEP_METHODS
    ),
    LayerMetric("campaign.pool_busy_frac", "fraction", "higher",
                "sum of serial cell times / (workers x campaign.run_s)",
                "run_wall_s", "table1_sweep", "single-run workloads"),
    LayerMetric("campaign.result_io_s", "s", "lower", "RunResult.to_dict / from_dict",
                "run_wall_s, cpu_s", "table1_sweep", "single-run workloads"),
    LayerMetric("cli.import_s", "s", "lower", "import repro.cli",
                "setup_s", "all (about half of setup_s on the small-build workloads)", "-"),
    LayerMetric("cli.report_s", "s", "lower",
                "RunResult.summary/to_dict -> json.dumps (sweep: aggregate/to_json)",
                "run_wall_s", "all", "-"),
    LayerMetric("vtime_to_target", "vtime", "lower",
                "RunResult.time_to_target(target) of the traced child (the unbounded "
                "end-to-end metric; bit-identical to the untraced run)",
                "-", "all", "-"),
    LayerMetric("trace.overhead_frac", "fraction", "lower",
                "traced / untraced run_wall_s - 1 (sweep: cpu_s, the traced pass is serial)",
                "-", "all (largest on async_churn: tracing cost is per call)", "-"),
    LayerMetric("trace.unattributed_frac", "fraction", "lower",
                "share of the traced child's wall covered by no layer span",
                "-", "all", "-"),
    LayerMetric("trace.spans", "count", "lower", "spans recorded", "-", "all", "-"),
)

HOW_THEY_INTERACT = (
    "The single-run workloads are one thread with nothing to contend for, so a faster layer "
    "saves at most its self-time share: fixing the partitioner can take ~8 of ~12 s off "
    "metro_wan and nothing off the others. Only table1_sweep has parallel parts, where the "
    "slower worker queue sets run_wall_s, so speeding cheap cells moves cpu_s but not wall "
    "until campaign.pool_busy_frac rises. Memory feeds back into time on metro_wan "
    "(first-touch page faults of retained rows and top-k residuals land in fit_s), so "
    "device.state_mb should move peak_rss_mb first and fit_s second. Tracing cost is per "
    "call, so it is largest on async_churn - which is why end-to-end numbers come from the "
    "untraced run."
)
