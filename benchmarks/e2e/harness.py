"""The parent side: spawn children, gather their reports, reduce to medians.

Closed loop, one client: one child at a time, each a fresh process so
``peak_rss_mb`` and import cost are per run.  The parent never imports
``repro`` or numpy (it stays a ~10 MB process, far below any child, so the
RSS a child inherits across exec never sets its peak) and hands the child
nothing but a job file.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable

from benchmarks.e2e.metrics import E2E, LAYERS, SIMULATED
from benchmarks.e2e.workloads import WORKLOADS, Workload, make_job

__all__ = [
    "ROOT", "DEFAULT_OUT", "ChildFailed", "child_env", "run_child", "warm_up", "measure",
    "measure_traced", "summarize", "reduce_e2e", "run_workload", "run_all", "git_head",
]

ROOT = Path(__file__).resolve().parents[2]
DEFAULT_OUT = Path(__file__).resolve().parent / "out"
_CHILD = Path(__file__).resolve().with_name("child.py")

#: A child that runs this long (6x the slowest one here; the sandbox has had
#: minutes where one took 50 s) is killed and the invocation aborted.  A child
#: slower than ``seconds`` is not repeated, so warm-up + untraced + traced
#: child stay inside the driver's 180 s limit per run.
CHILD_TIMEOUT_S = 80.0

PINS = {
    # Measured on the 2-core box: multi-threaded OpenBLAS made ring_lab
    # slower and doubled its CPU time; one thread also steadies the clock.
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class ChildFailed(RuntimeError):
    """The child died without writing a report (import error, crash, timeout)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@functools.cache
def git_head() -> str:
    """Commit of this checkout, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_child(job: dict[str, Any], out: Path, tag: str) -> dict[str, Any]:
    """Run one child to completion and return its report.

    A child that fails its output checks still reports (``failed > 0``);
    one that dies without a report raises :class:`ChildFailed`.
    """
    out.mkdir(parents=True, exist_ok=True)
    job_path = out / f"{tag}.job.json"
    report_path = out / f"{tag}.report.json"
    report_path.unlink(missing_ok=True)
    job = {**job, "root": str(ROOT), "report": str(report_path), "git_head": git_head()}
    if job.get("trace"):
        job["trace_file"] = str(out / f"{tag}.trace.jsonl")
    # Stamped last: everything between here and exec is part of the spawn.
    job["spawn_t"] = time.monotonic()
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(_CHILD), str(job_path)],
        cwd=ROOT, env=child_env(), start_new_session=True,
    )
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            # The child leads its own session: take pool workers down with it.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if not report_path.exists():
        raise ChildFailed(f"{tag}: child exited {proc.returncode} without a report")
    return json.loads(report_path.read_text(encoding="utf-8"))


def warm_up(out: Path) -> None:
    """One discarded child before the first timed one.

    Compiles ``.pyc`` files, pulls the interpreter and numpy into the page
    cache, runs a tiny experiment and first-touches ~300 MB: on this
    sandbox the first large allocation after an idle period costs seconds,
    and none of that may be billed to a workload.
    """
    job = make_job(WORKLOADS["ring_lab"], "smoke", 0)
    run_child({**job, "warmup_mb": 300}, out, "warmup")


def measure(
    workload: Workload, scale: str, seed: int, out: Path,
    perturb: dict[str, float] | None = None,
) -> dict[str, Any]:
    """One untraced child."""
    job = make_job(workload, scale, seed)
    if perturb:
        job["perturb"] = perturb
    return run_child(job, out, f"{workload.name}.untraced")


def measure_traced(
    workload: Workload, scale: str, base: dict[str, Any], out: Path,
    perturb: dict[str, float] | None = None,
) -> dict[str, Any]:
    """One traced child on the spec seed of the untraced report ``base`` (so
    the same work); fills in the rows that need both runs."""
    job = {**make_job(workload, scale, base["seed"]), "trace": True}
    if perturb:
        job["perturb"] = perturb
    report = run_child(job, out, workload.name)
    layers = report["layers"]
    # The traced sweep runs its cells serially, so compare CPU there.
    basis = "cpu_s" if workload.kind == "sweep" else "run_wall_s"
    layers["trace.overhead_frac"] = report["e2e"][basis] / base["e2e"][basis] - 1.0
    if workload.kind == "sweep":
        cells = sum(v for k, v in layers.items() if k.startswith("campaign.cell_s."))
        layers["campaign.run_s"] = base["e2e"]["fit_s"]
        layers["campaign.pool_busy_frac"] = cells / (workload.workers * base["e2e"]["fit_s"])
    _same_simulated(report, base, "traced")
    return report


def _same_simulated(report: dict[str, Any], base: dict[str, Any], what: str) -> None:
    """Same spec seed, same simulated metrics - or ``report`` has failed."""
    for metric in SIMULATED:
        if report["e2e"][metric] != base["e2e"][metric]:
            report["failed"] = report["attempted"]
            report["checks"].append({
                "name": f"{what}.{metric}==first untraced", "ok": False, "soft": False,
                "detail": f"{report['e2e'][metric]} vs {base['e2e'][metric]}",
            })


def summarize(values: list[float]) -> dict[str, Any]:
    """Median and quartiles with the sample count (quartiles need n >= 2)."""
    n = len(values)
    if n == 0:
        return {"median": None, "q1": None, "q3": None, "n": 0, "values": []}
    if n == 1:
        q1 = q3 = values[0]
    else:
        # Inclusive: with two repeats the quartiles stay inside what was observed.
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": n, "values": values}


def _failed_checks(reports: list[dict[str, Any]], note: str = "") -> list[str]:
    return [
        f"{c['name']}{note} ({c['detail']})"
        for r in reports for c in r["checks"] if not c["ok"] and not c["soft"]
    ]


def reduce_e2e(reports: list[dict[str, Any]]) -> dict[str, Any]:
    """Untraced reports of one spec seed -> one workload result."""
    for report in reports[1:]:
        _same_simulated(report, reports[0], "repeat")
    e2e = {}
    for metric in E2E:
        values = [r["e2e"][metric.name] for r in reports]
        e2e[metric.name] = summarize([v for v in values if v is not None])
    return {
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "failed_checks": _failed_checks(reports),
        "e2e": e2e,
        "provenance": reports[0]["provenance"],
    }


def run_workload(
    workload: Workload, scale: str, seed: int, out: Path, *,
    seconds: float, repeats: int | None = None, traced: bool = False,
) -> dict[str, Any]:
    """Untraced children of spec seed ``seed``, then (``traced``) one traced
    rerun; one reduced result.  Without ``repeats`` the first child's
    wall-clock sizes the run: as many children as fit in ``seconds``."""
    reports = [measure(workload, scale, seed, out)]
    if repeats is None:
        repeats = max(1, int(seconds / reports[0]["e2e"]["run_wall_s"]))
    reports += [measure(workload, scale, seed, out) for _ in range(repeats - 1)]
    result = reduce_e2e(reports)
    result.update(workload=workload.name, scale=scale, seed=seed)
    if traced:
        report = measure_traced(workload, scale, reports[0], out)
        # 0 where a layer did not run.
        result["layers"] = {m.name: float(report["layers"].get(m.name, 0.0)) for m in LAYERS}
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        result["failed_checks"] += _failed_checks([report], " (traced)")
    return result


def run_all(
    names: list[str], scale: str, seed: int, out: Path, *,
    seconds: float, repeats: int | None = None, traced: bool = False,
    show: Callable[[dict[str, Any]], None] = lambda result: None,
) -> dict[str, Any]:
    """Warm up, then run the named workloads one after another; both entry
    points (``python -m benchmarks.e2e``, ``run.py``) go through here."""
    warm_up(out)
    results: dict[str, Any] = {"git_head": git_head(), "scale": scale, "seed": seed,
                               "workloads": {}}
    for name in names:
        result = run_workload(WORKLOADS[name], scale, seed, out,
                              seconds=seconds, repeats=repeats, traced=traced)
        show(result)
        results["workloads"][name] = result
    return results
