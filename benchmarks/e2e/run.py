"""Driver entry point: one workload, one result line.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs a warm-up child, then timed children of ``ExperimentSpec.seed = N``
(same seed, same inputs): as many as fit in ``S`` seconds going by the first
one's wall-clock — two at the recorded sizes — and prints as the last line
of standard output one JSON object with the median of every end-to-end
metric (``--trace 0``), or every per-layer metric from one untraced child
and its traced twin (``--trace 1``).  Exits non-zero, without a result
line, when the program cannot be run from this checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Run as a script: make ``benchmarks.e2e`` importable from the checkout root.
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e import harness  # noqa: E402
from benchmarks.e2e.metrics import E2E, LAYERS  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None, scale: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        results = harness.run_all(
            [args.workload], scale, args.seed, harness.DEFAULT_OUT, seconds=args.seconds,
            # Traced: the traced child needs one untraced twin (overhead, pool occupancy).
            repeats=1 if args.trace else None, traced=bool(args.trace),
        )
    except harness.ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = results["workloads"][args.workload]

    if args.trace:
        metrics = {m.name: {"value": result["layers"][m.name], "unit": m.unit} for m in LAYERS}
    else:
        metrics = {m.name: {"value": result["e2e"][m.name]["median"], "unit": m.unit}
                   for m in E2E if m.bound is not None}
    for line in result["failed_checks"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
