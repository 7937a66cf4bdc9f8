"""CLI: run every workload, check outputs, print every metric by name.

    PYTHONPATH=src python -m benchmarks.e2e [--trace] [--write] [--repeats N]
    PYTHONPATH=src python -m benchmarks.e2e --selfcheck
    PYTHONPATH=src python -m benchmarks.e2e compare A/results.json B/results.json
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Any

from benchmarks.e2e import compare, harness, selfcheck
from benchmarks.e2e.metrics import E2E, HOW_THEY_INTERACT, LAYERS, SIMULATED
from benchmarks.e2e.workloads import SCALES, WORKLOADS

#: How long one contract run measures (``BENCHMARK.json`` ``run_seconds``):
#: two children of the slowest workload, with a margin for a busy host.
RUN_SECONDS = 28

_BENCHMARK_JSON = harness.ROOT / "BENCHMARK.json"
_LEDGER_JSON = Path(__file__).resolve().parent / "LEDGER.json"
_README = Path(__file__).resolve().parent / "README.md"
_BEGIN, _END = "<!-- tables: begin (generated by --write) -->", "<!-- tables: end -->"


def benchmark_doc() -> dict[str, Any]:
    """``BENCHMARK.json`` in the driver's schema, from the metric tables."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in E2E if m.bound is not None
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in LAYERS],
    }


def ledger_text(results: dict[str, Any]) -> str:
    """``LEDGER.json``: the latest numbers, one row per line (the driver's
    schema has no room for them); what the names mean is in ``metrics.py``
    and ``workloads.py``."""
    def latest(w: dict[str, Any]) -> dict[str, Any]:
        host = {k: w["provenance"][k] for k in ("python", "numpy", "blas", "nproc")}
        e2e = {name: [s["median"], s["q1"], s["q3"], s["n"]] for name, s in w["e2e"].items()}
        return {"attempted": w["attempted"], "failed": w["failed"], "host": host, "e2e": e2e,
                **({"layers": w["layers"]} if "layers" in w else {})}

    doc = {"git_head": results["git_head"], "seed": results["seed"],
           "e2e_columns": ["median", "q1", "q3", "n"],
           "workloads": {name: latest(w) for name, w in results["workloads"].items()}}
    # Innermost lists on one line each.
    return re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m[1].split()) + "]",
                  json.dumps(doc, indent=1)) + "\n"


def readme_tables() -> str:
    """The glossary tables of ``README.md``, rendered from the data they
    describe so the copies cannot drift (``--write`` puts them in place)."""
    def spec(w) -> str:
        return ", ".join(f"`{k}={json.dumps(v)}`" for k, v in w.spec.items())

    lines = ["### Workloads", "", "| name | spec (full scale) | target / floor | why |",
             "|---|---|---|---|"]
    lines += [f"| `{w.name}` | {spec(w)} | {w.target} / {w.floor} | {w.why} |"
              for w in WORKLOADS.values()]
    lines += ["", "### End-to-end metrics", "", "| name | unit | better | bound | definition |",
              "|---|---|---|---|---|"]
    lines += [f"| `{m.name}` | {m.unit} | {m.better} | "
              f"{'exact per seed only' if m.bound is None else format(m.bound, '.0%')} | "
              f"{m.definition} |" for m in E2E]
    lines += ["", "### Per-layer metrics (traced run)", "",
              "| metric | unit | boundary timed from outside | should move | on | ~0 on |",
              "|---|---|---|---|---|---|"]
    lines += [f"| `{m.name}` | {m.unit} | {m.boundary} | {m.moves} | {m.on} | {m.near_zero_on} |"
              for m in LAYERS]
    lines += ["", "### How they interact", "", HOW_THEY_INTERACT]
    return "\n".join(lines) + "\n"


def write_readme() -> None:
    text = _README.read_text(encoding="utf-8")
    head, rest = text.split(_BEGIN, 1)
    _README.write_text(head + _BEGIN + "\n" + readme_tables() + _END + rest.split(_END, 1)[1],
                       encoding="utf-8")


def _num(value: Any) -> str:
    return "-" if value is None else f"{value:.6g}"


def print_result(result: dict[str, Any]) -> None:
    print(f"\n== {result['workload']}  (scale {result['scale']}, seed {result['seed']}, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"fail_frac {result['failed'] / result['attempted']:.3f})")
    print(f"  {'end-to-end metric':<18}{'unit':<10}{'kind':<11}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'n':>4}")
    for m in E2E:
        s = result["e2e"][m.name]
        kind = "simulated" if m.name in SIMULATED else "host"
        print(f"  {m.name:<18}{m.unit:<10}{kind:<11}{_num(s['median']):>12}{_num(s['q1']):>12}"
              f"{_num(s['q3']):>12}{s['n']:>4}")
    if "layers" in result:
        print(f"  {'per-layer metric (one traced run)':<40}{'unit':<10}{'value':>12}")
        for m in LAYERS:
            print(f"  {m.name:<40}{m.unit:<10}{_num(result['layers'][m.name]):>12}")
    for line in result["failed_checks"]:
        print(f"  FAILED {line}")


def run_all(args: argparse.Namespace) -> int:
    out = Path(args.out)
    results = harness.run_all(
        list(WORKLOADS), args.scale, args.seed, out, seconds=RUN_SECONDS,
        repeats=args.repeats, traced=args.trace, show=print_result,
    )
    (out / "results.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"\nresults: {out / 'results.json'}" + (f"; traces: {out}/*.trace.jsonl" if args.trace else ""))
    if args.write:
        _BENCHMARK_JSON.write_text(json.dumps(benchmark_doc(), indent=2) + "\n", encoding="utf-8")
        _LEDGER_JSON.write_text(ledger_text(results), encoding="utf-8")
        write_readme()
        print(f"wrote {_BENCHMARK_JSON}, {_LEDGER_JSON} and the tables of {_README}")
    return 1 if any(w["failed"] for w in results["workloads"].values()) else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: python -m benchmarks.e2e compare A.json B.json", file=sys.stderr)
            return 2
        return compare.main(argv[1], argv[2])
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n")[0])
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: ExperimentSpec.seed (sweep: its first seed)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced children per workload (default: as many as fit in "
                             "RUN_SECONDS, going by the first)")
    parser.add_argument("--trace", action="store_true",
                        help="rerun each workload once traced and print the per-layer ledger")
    parser.add_argument("--write", action="store_true",
                        help="record the tables in BENCHMARK.json and README.md, the numbers in "
                             "LEDGER.json")
    parser.add_argument("--selfcheck", action="store_true",
                        help="perturb one layer at a time and assert the numbers move with it")
    parser.add_argument("--out", default=str(harness.DEFAULT_OUT),
                        help="directory for job/report/trace files and results.json")
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be >= 1")
    try:
        if args.selfcheck:
            return selfcheck.main(Path(args.out))
        return run_all(args)
    except harness.ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
