"""``python -m benchmarks.e2e compare A.json B.json``: did B regress against A?

Both files are ``results.json`` documents written by ``python -m
benchmarks.e2e``.  Every (workload, end-to-end metric) pair gets its own
row: median / quartiles / n on both sides, the signed change in the
metric's "worse" direction, and a verdict under the metric's bound from
``BENCHMARK.json``:

- ``regression`` — B's median is worse than A's by more than the bound;
- ``unresolved`` — the run-to-run spread (the wider side's IQR / median)
  exceeds the bound, so the row proves nothing — unless every B run reads
  better than every A run, which is ``ok``;
- ``mismatch`` — a simulated metric differs for the same seed: the change
  altered the modelled system, not just the simulator's speed.

Both sides must have run the same ``--seed`` at the same scale: the simulated
metrics are only comparable then, and so is the amount of work behind the
host times.

Exit status is non-zero on any regression, mismatch or failed operation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from benchmarks.e2e.metrics import SIMULATED

__all__ = ["compare", "load_bounds", "main"]

_BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_bounds(path: Path = _BENCHMARK_JSON) -> dict[str, tuple[str, float]]:
    """metric -> (better, bound) as recorded in ``BENCHMARK.json``."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: (m["better"], float(m["bound"])) for m in doc["end_to_end"]}


def _spread(summary: dict[str, Any]) -> float:
    if summary["n"] < 2 or not summary["median"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])


def _row(metric: str, better: str, bound: float, a: dict, b: dict) -> dict[str, Any]:
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["median"] - a["median"]) / abs(a["median"])
    if better == "lower":
        b_always_better = max(b["values"]) < min(a["values"])
    else:
        b_always_better = min(b["values"]) > max(a["values"])
    if worse > bound:
        verdict = "regression"
    elif max(_spread(a), _spread(b)) > bound and not b_always_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"metric": metric, "a": a, "b": b, "worse_by": worse, "bound": bound,
            "verdict": verdict}


def compare(a: dict[str, Any], b: dict[str, Any],
            bounds: dict[str, tuple[str, float]]) -> tuple[list[dict[str, Any]], list[str]]:
    """Rows for every (workload, metric) pair plus hard problems."""
    rows: list[dict[str, Any]] = []
    problems: list[str] = []
    for key in ("seed", "scale"):
        if a[key] != b[key]:
            problems.append(f"A ran {key} {a[key]!r}, B {b[key]!r}: nothing is comparable")
    if problems:
        return rows, problems
    for name in sorted(set(a["workloads"]) ^ set(b["workloads"])):
        problems.append(f"{name}: missing from {'B' if name in a['workloads'] else 'A'}")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"]:
                problems.append(f"{name}: {side} failed {w['failed']}/{w['attempted']} operations")
        for metric in SIMULATED:
            # Repeats of one seed agree within a side (the harness fails the
            # run otherwise), so the median is the value.
            sim_a, sim_b = wa["e2e"][metric]["median"], wb["e2e"][metric]["median"]
            if sim_a != sim_b:
                problems.append(
                    f"{name}: simulated {metric} differs: {sim_a!r} vs {sim_b!r} (mismatch)")
        for metric, (better, bound) in bounds.items():
            row = _row(metric, better, bound, wa["e2e"][metric], wb["e2e"][metric])
            row["workload"] = name
            rows.append(row)
            if row["verdict"] == "regression":
                problems.append(
                    f"{name}: {metric} worse by {row['worse_by']:+.1%} (bound {bound:.0%})"
                )
    return rows, problems


def _fmt(summary: dict[str, Any]) -> str:
    return (f"{summary['median']:.5g} [{summary['q1']:.5g}, {summary['q3']:.5g}] "
            f"n={summary['n']}")


def main(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    rows, problems = compare(a, b, load_bounds())
    print(f"{'workload':<13} {'metric':<16} {'A median [q1, q3] n':<34} "
          f"{'B median [q1, q3] n':<34} {'worse by':>9} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<13} {row['metric']:<16} {_fmt(row['a']):<34} "
              f"{_fmt(row['b']):<34} {row['worse_by']:>+9.1%} {row['bound']:>6.0%}  "
              f"{row['verdict']}")
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    if unresolved:
        print(f"\nunresolved (spread wider than the bound; not passing, not failing): "
              + ", ".join(f"{r['workload']}/{r['metric']}" for r in unresolved))
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print("\nno regression, simulated metrics bit-identical")
    return 1 if problems else 0
