"""CLI: run the perf suite and write ``BENCH_perf.json``.

    PYTHONPATH=src python -m benchmarks.perf --scale quick --out BENCH_perf.json

The report is the latest run (``benchmarks``, what CI reads) plus
``history``: one summary line per run ever written to that file —
``git_head`` (``+dirty`` when the tree had uncommitted changes), date,
scale and every benchmark's ``after_s``/``speedup`` — carried over and
appended to, never rewritten.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[2]
for entry in (str(_REPO_ROOT), str(_REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf.suite import SCALES, run_suite  # noqa: E402


def _fmt_seconds(s: float) -> str:
    return f"{s * 1e3:8.3f} ms" if s < 1.0 else f"{s:8.3f} s "


def _git_head() -> str:
    """Short HEAD of the checkout the suite measured, or ``"unknown"``."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=_REPO_ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        head = git("rev-parse", "--short", "HEAD")
        return f"{head}+dirty" if git("status", "--porcelain") else head
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _history_entry(report: dict) -> dict:
    return {
        "git_head": _git_head(),
        "date": time.strftime("%Y-%m-%d"),
        "scale": report["scale"],
        "benchmarks": {
            name: {k: entry[k] for k in ("after_s", "speedup") if k in entry}
            for name, entry in report["benchmarks"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf", description="repro perf microbenchmarks"
    )
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick")
    parser.add_argument("--out", default="BENCH_perf.json", help="report path")
    parser.add_argument(
        "--repeats", type=int, default=None, help="override best-of repetitions"
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    report = run_suite(args.scale, repeats=args.repeats)
    report["elapsed_s"] = time.time() - t0

    out = Path(args.out)
    try:
        history = json.loads(out.read_text()).get("history", [])
    except (OSError, ValueError):
        history = []
    report["history"] = [*history, _history_entry(report)]
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"perf suite ({args.scale}) -> {out}")
    for name, entry in report["benchmarks"].items():
        line = f"  {name:28s} after {_fmt_seconds(entry['after_s'])}"
        if "before_s" in entry:
            line += (
                f"   before {_fmt_seconds(entry['before_s'])}"
                f"   speedup {entry['speedup']:.2f}x"
            )
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
