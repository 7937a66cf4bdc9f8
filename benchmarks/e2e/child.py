"""One workload, once, in a fresh process: run, check, report.

Spawned by :mod:`benchmarks.e2e.harness` as ``python child.py job.json``
with BLAS pinned to one thread and ``PYTHONPATH`` pointing at the
checkout's ``src/``.  The job holds only generated inputs (spec fields,
target, checks); the program under test is driven through its public
entry points — ``run_experiment`` for a single run, ``sweep`` +
``Campaign.run`` + ``to_json`` for the Table-1 sweep — exactly as
``repro run`` / ``repro sweep`` drive it.  Phase boundaries are stamped on
``time.monotonic()``, the clock the parent stamped the spawn on.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

_HERE = Path(__file__).resolve().parent
# Run as a script: make ``benchmarks.e2e`` importable from the checkout root.
if str(_HERE.parents[1]) not in sys.path:
    sys.path.insert(0, str(_HERE.parents[1]))

from benchmarks.e2e.harness import PINS  # noqa: E402
from benchmarks.e2e.trace import Patcher, Tracer, install, instrument_server, layer_metrics  # noqa: E402


class _NullTracer(Patcher):
    """Tracing off: only the child's own phase spans exist, and cost nothing."""

    def span(self, name):
        return nullcontext()


def _perturb(patcher: Patcher, perturb: dict) -> None:
    """``--selfcheck`` only: slow one layer down from the benchmark side."""
    import repro.datasets
    from repro.device import LocalTrainer

    sleep_s = perturb.get("partition_sleep_s")
    if sleep_s:

        def slow_partition(fn):
            def partition(*args, **kwargs):
                time.sleep(sleep_s)
                return fn(*args, **kwargs)

            return partition

        patcher.patch_globals(repro.datasets, "partition_by_name", slow_partition)
    spin_s = perturb.get("train_spin_s")
    if spin_s:
        train = LocalTrainer.train

        def slow_train(self, *args, **kwargs):
            until = time.perf_counter() + spin_s
            while time.perf_counter() < until:
                pass
            return train(self, *args, **kwargs)

        patcher.patch(LocalTrainer, "train", slow_train)


def _usage() -> tuple[float, float]:
    """(cpu seconds, peak RSS MB) of this process and its waited-for
    descendants (the sweep's pool workers)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def _provenance(job: dict) -> tuple[dict, bool]:
    import numpy as np
    import repro

    src = Path(job["root"]).resolve() / "src"
    module = Path(repro.__file__).resolve()
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy: no dict mode
        pass
    info = {
        "repro": str(module),
        "git_head": job["git_head"],
        "repro_version": repro.__version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "pins": {k: os.environ.get(k) for k in PINS},
        "seed": job["seed"],
    }
    return info, src in module.parents


def _check(checks: list, name: str, ok: bool, detail: str = "", soft: bool = False,
           cells: list[str] | None = None) -> None:
    """Record one output check.  A miss fails the sweep cells it names
    (``None``: the whole run, every cell); a ``soft`` miss is reported, not
    counted as a failed operation."""
    checks.append({"name": name, "ok": bool(ok), "detail": detail, "soft": soft, "cells": cells})


def _failed_operations(checks: list, attempted: int) -> int:
    """Operations (a run; a sweep cell) with at least one hard check missed."""
    failed: set[str] = set()
    for check in checks:
        if check["ok"] or check["soft"]:
            continue
        if check["cells"] is None:
            return attempted
        failed.update(check["cells"])
    return len(failed)


def _ledger_checks(checks: list, transport: dict, dense: bool,
                   cells: list[str] | None = None) -> None:
    prefix = f"{cells[0]}." if cells else ""
    _check(checks, f"{prefix}wire<=raw", transport["wire_bytes"] <= transport["raw_bytes"],
           f"{transport['wire_bytes']} vs {transport['raw_bytes']}", cells=cells)
    if dense:
        _check(checks, f"{prefix}ratio==1", transport["compression_ratio"] == 1.0,
               str(transport["compression_ratio"]), cells=cells)


def _run_single(job: dict, tracer, marks: dict, traced: bool) -> dict:
    import repro.experiments as experiments
    from repro.experiments import ExperimentSpec, run_experiment

    spec = ExperimentSpec(**job["spec"])
    servers = []
    build = experiments.build_experiment

    def timed_build(*args, **kwargs):
        with tracer.span("phase.build"):
            server = build(*args, **kwargs)
        marks["built"] = time.monotonic()
        fit = server.fit

        def timed_fit(*a, **k):
            marks["fit_start"] = time.monotonic()
            try:
                with tracer.span("phase.fit"):
                    return fit(*a, **k)
            finally:
                marks["fit_end"] = time.monotonic()

        server.fit = timed_fit
        if traced:
            instrument_server(tracer, server)
        servers.append(server)
        return server

    tracer.patch(experiments, "build_experiment", timed_build)
    result = run_experiment(spec)
    target = job["target"]
    with tracer.span("cli.report"):
        ttt = result.time_to_target(target)
        text = json.dumps({
            **result.summary(),
            "config": result.config,
            "target": target,
            "cost_to_target": result.cost_to_target(target),
            "time_to_target": ttt,
            "history": result.history.to_dict(),
        })
    marks["done"] = time.monotonic()

    transport, checks = result.transport, []
    _check(checks, "accuracy_floor", result.final_accuracy >= job["floor"],
           f"{result.final_accuracy:.4f} vs {job['floor']}")
    _check(checks, "target_reached", ttt is not None, f"target {target}")
    _check(checks, "report_parses", json.loads(text)["final_accuracy"] == result.final_accuracy)
    _ledger_checks(checks, transport, job["dense"])
    if job["full_participation"]:
        expected = spec.rounds * spec.num_devices
        _check(checks, "uploads==rounds*devices", transport["raw_up"] == expected,
               f"{transport['raw_up']} vs {expected}")
    else:
        _check(checks, "uploads<=downloads", 0 < transport["raw_up"] <= transport["raw_down"],
               f"{transport['raw_up']} vs {transport['raw_down']}")
    if job["slowdowns_only"]:
        res = result.resilience
        _check(checks, "injected_total==slowdowns",
               res["injected_total"] == res["injected_slowdowns"] > 0, str(res))
    server = servers[0]
    return {
        "checks": checks,
        "attempted": 1,
        "updates": transport["raw_up"] + transport["raw_peer"],
        "final_accuracy": result.final_accuracy,
        "vtime_to_target": ttt,
        "wire_mb": transport["wire_bytes"] / 1e6,
        "extra_layers": {
            "device.state_mb": server.fleet.state_nbytes / 1e6,
            "simulation.events": server.scheduler.events_processed,
            "compression.ratio": transport["compression_ratio"],
            "faults.slowdowns": result.resilience.get("injected_slowdowns", 0),
            "faults.deadline_hits": result.resilience.get("deadline_hits", 0),
            "faults.dropped_updates": result.resilience.get("dropped_updates", 0),
        },
    }


def _run_sweep(job: dict, tracer, marks: dict, traced: bool) -> dict:
    import repro.experiments as experiments
    from repro.campaign import Campaign, sweep
    from repro.experiments import ExperimentSpec

    spec = {k: v for k, v in job["spec"].items() if k != "seed"}
    base = ExperimentSpec(**spec)
    with tracer.span("campaign.expand"):
        specs = sweep(
            base,
            {"method": job["methods"], "seed": job["seeds"]},
            method_kwargs=job["method_kwargs"],
        )
    campaign = Campaign(specs)  # never a cache_dir: every cell executes
    events = [0]
    if traced:
        # The traced pass runs the cells serially in this process, where
        # their spans can be recorded; each built server is instrumented.
        build = experiments.build_experiment

        def traced_build(*args, **kwargs):
            server = build(*args, **kwargs)
            instrument_server(tracer, server)
            fit = server.fit

            def counted_fit(*a, **k):
                try:
                    return fit(*a, **k)
                finally:
                    events[0] += server.scheduler.events_processed

            server.fit = counted_fit
            return server

        tracer.patch(experiments, "build_experiment", traced_build)
    marks["built"] = marks["fit_start"] = time.monotonic()
    with tracer.span("phase.fit"):
        outcome = campaign.run(workers=1 if traced else job["workers"])
    marks["fit_end"] = time.monotonic()
    target = job["target"]
    with tracer.span("cli.report"):
        text = outcome.to_json(target=target)
    marks["done"] = time.monotonic()

    rows = {row["method"]: row for row in json.loads(text)}
    checks: list = []
    expected_cells = len(job["methods"]) * len(job["seeds"])
    _check(checks, "cells", len(outcome) == expected_cells, f"{len(outcome)} vs {expected_cells}")
    _check(checks, "cached==0", outcome.cache_hits == 0, str(outcome.cache_hits))
    # An exempt method (see workloads.py) counts neither in the floor nor in
    # the table's mean: its divergence depends on the seed, not on the work.
    held = [m for m in job["methods"] if m not in job["floor_exempt"]]
    final_accuracy = sum(rows[m]["final_mean"] for m in held) / len(held)
    for method in job["methods"]:
        row = rows[method]
        cells = [f"{method}.seed{seed}" for seed in job["seeds"]]
        _check(checks, f"{method}.accuracy_floor", row["final_mean"] >= job["floor"],
               f"{row['final_mean']:.4f} vs {job['floor']}", soft=method not in held, cells=cells)
        _check(checks, f"{method}.target_reached", row["vtime_reached"] == row["seeds"],
               f"{row['vtime_reached']}/{row['seeds']} seeds", cells=cells)
    hisyn = rows["fedhisyn"]["vtime_mean"]
    if job["floor"] > 0.0 and hisyn is not None:
        for other in ("fedavg", "tfedavg"):  # the paper's claim
            theirs = rows[other]["vtime_mean"]
            _check(checks, f"fedhisyn.vtime<={other}", theirs is not None and hisyn <= theirs,
                   f"{hisyn} vs {theirs}")
    updates = wire = 0.0
    for entry in outcome:
        transport = entry.result.transport
        cells = [f"{entry.spec.method}.seed{entry.spec.seed}"]
        _ledger_checks(checks, transport, True, cells)
        factor = job["barrier_methods"].get(entry.spec.method)
        if factor is not None:
            expected = entry.spec.rounds * entry.spec.num_devices * factor
            _check(checks, f"{cells[0]}.uploads", transport["raw_up"] == expected,
                   f"{transport['raw_up']} vs {expected}", cells=cells)
        updates += transport["raw_up"] + transport["raw_peer"]
        wire += transport["wire_bytes"]
    return {
        "checks": checks,
        "attempted": expected_cells,
        "updates": updates,
        "final_accuracy": final_accuracy,
        "vtime_to_target": hisyn,
        "wire_mb": wire / 1e6,
        # Rows a sweep does not report (fleet state, faults) read as 0.
        "extra_layers": {"simulation.events": events[0], "compression.ratio": 1.0},
    }


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    spawn = job["spawn_t"]
    traced = bool(job.get("trace"))
    tracer = Tracer() if traced else _NullTracer()
    marks: dict[str, float] = {"entered": time.monotonic()}

    with tracer.span("cli.import"):
        import repro.cli  # noqa: F401  (what `python -m repro` pays before any work)
    marks["imported"] = time.monotonic()
    provenance, in_checkout = _provenance(job)
    if not in_checkout:
        print(f"error: repro imported from {provenance['repro']}, not this checkout's src/",
              file=sys.stderr)
        return 3
    if job.get("warmup_mb"):
        import numpy as np

        np.ones(int(job["warmup_mb"]) * 131072).sum()  # first-touch a large block
    if job.get("perturb"):
        _perturb(tracer, job["perturb"])
    if traced:
        install(tracer)

    try:
        run = _run_sweep if job["kind"] == "sweep" else _run_single
        out = run(job, tracer, marks, traced)
    finally:
        tracer.restore()
    cpu_s, peak_rss_mb = _usage()

    failed = _failed_operations(out["checks"], out["attempted"])
    fit_s = marks["fit_end"] - marks["fit_start"]
    wall = marks["done"] - spawn
    report = {
        "workload": job["workload"],
        "seed": job["seed"],
        "traced": traced,
        "attempted": out["attempted"],
        "failed": failed,
        "checks": out["checks"],
        "marks": {k: v - spawn for k, v in marks.items()},
        "e2e": {
            "run_wall_s": wall,
            "setup_s": marks["built"] - spawn,
            "fit_s": fit_s,
            "cpu_s": cpu_s,
            "updates_per_s": out["updates"] / fit_s,
            "peak_rss_mb": peak_rss_mb,
            "final_accuracy": out["final_accuracy"],
            "vtime_to_target": out["vtime_to_target"],
            "wire_mb": out["wire_mb"],
        },
        "provenance": provenance,
    }
    if traced:
        layers = layer_metrics(tracer, wall)
        layers.update(out["extra_layers"])
        layers["vtime_to_target"] = out["vtime_to_target"] or 0.0
        handlers = layers.get("simulation.scheduler_s", 0.0) + sum(
            v for k, v in layers.items() if k.startswith("core.async.")
        )
        events = layers["simulation.events"]
        layers["simulation.us_per_event"] = 1e6 * handlers / events if events else 0.0
        report["layers"] = layers
    with open(job["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    if traced and job.get("trace_file"):
        tracer.write(
            job["trace_file"],
            {"workload": job["workload"], "seed": job["seed"], "run_wall_s": wall},
            spawn,
        )
    for check in out["checks"]:
        if not check["ok"]:
            kind = "warning" if check["soft"] else "check failed"
            print(f"{kind}: {check['name']} ({check['detail']})", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
