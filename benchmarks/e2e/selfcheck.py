"""``--selfcheck``: prove the benchmark measures the program.

From the benchmark side only (no edit under ``src/``), one layer at a time
is slowed by a known amount on a small ``ring_lab`` and the numbers must
move by that amount, where predicted and nowhere else:

- ``partition_by_name`` + 1 s sleep  =>  ``datasets.partition_s`` and
  ``setup_s`` rise by 1 s +-10 %, ``fit_s`` does not move;
- ``LocalTrainer.train`` + 5 ms busy-wait per call  =>
  ``device.unit_train_s`` and ``fit_s`` rise by calls x 5 ms +-20 %,
  ``setup_s`` does not move.

The injected amounts are a few times the quantities they land on (~0.4 s of
set-up, ~0.5 s of fit), and the three variants run interleaved, so that a
slow phase of the host (x1.2 for minutes) falls on all of them alike.

It also checks the seed contract: the same seed reproduces the three
simulated metrics bit-for-bit (also under both perturbations, which change
host time only), and a different seed changes them.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from pathlib import Path

from benchmarks.e2e import harness
from benchmarks.e2e.metrics import SIMULATED
from benchmarks.e2e.workloads import WORKLOADS

__all__ = ["main"]

SLEEP_S = 1.0
SPIN_S = 0.005
REPEATS = 3

#: Big enough that fit_s (~0.5 s, ~300 train calls) stands clear of the
#: clock's noise, small enough that the whole check takes under a minute.
_CHECK_SPEC = {"fleet_profile": None, "num_devices": 20, "num_samples": 4000, "rounds": 3,
               "method_kwargs": {"num_classes": 3}}


def _median(reports: list[dict], metric: str) -> float:
    return statistics.median(r["e2e"][metric] for r in reports)


def _simulated(report: dict) -> tuple:
    return tuple(report["e2e"][m] for m in SIMULATED)


def main(out: Path) -> int:
    workload = replace(WORKLOADS["ring_lab"], smoke=_CHECK_SPEC)
    results: list[tuple[str, bool, str]] = []

    def expect(name: str, ok: bool, detail: str) -> None:
        results.append((name, ok, detail))

    def close(name: str, got: float, want: float, tolerance: float) -> None:
        expect(name, abs(got - want) <= tolerance * want,
               f"{got:+.4f} s, expected {want:.4f} s +-{tolerance:.0%}")

    def unmoved(name: str, got: float, injected: float) -> None:
        expect(name, abs(got) <= 0.25 * injected,
               f"{got:+.4f} s, allowed +-{0.25 * injected:.4f} s")

    perturbs = {"base": None, "slept": {"partition_sleep_s": SLEEP_S},
                "spun": {"train_spin_s": SPIN_S}}
    untraced: dict[str, list[dict]] = {variant: [] for variant in perturbs}
    harness.warm_up(out)
    for _ in range(REPEATS):
        for variant, perturb in perturbs.items():
            untraced[variant].append(harness.measure(workload, "smoke", 0, out, perturb))
    traced = {variant: harness.measure_traced(workload, "smoke", untraced[variant][0], out, perturb)
              for variant, perturb in perturbs.items()}
    base, slept, spun = untraced.values()
    base_traced, slept_traced, spun_traced = traced.values()

    expect("same seed reproduces simulated metrics",
           len({_simulated(r) for r in base}) == 1 and not base_traced["failed"],
           str(_simulated(base[0])))
    other = harness.measure(workload, "smoke", 1, out)
    expect("another seed changes simulated metrics",
           other["e2e"]["final_accuracy"] != base[0]["e2e"]["final_accuracy"]
           or other["e2e"]["wire_mb"] != base[0]["e2e"]["wire_mb"],
           f"{_simulated(other)} vs {_simulated(base[0])}")

    close("partition sleep -> datasets.partition_s",
          slept_traced["layers"]["datasets.partition_s"]
          - base_traced["layers"]["datasets.partition_s"], SLEEP_S, 0.10)
    close("partition sleep -> setup_s",
          _median(slept, "setup_s") - _median(base, "setup_s"), SLEEP_S, 0.10)
    unmoved("partition sleep leaves fit_s",
            _median(slept, "fit_s") - _median(base, "fit_s"), SLEEP_S)

    calls = base_traced["layers"]["device.unit_train_calls"]
    injected = calls * SPIN_S
    close(f"train spin x{calls:.0f} calls -> device.unit_train_s",
          spun_traced["layers"]["device.unit_train_s"]
          - base_traced["layers"]["device.unit_train_s"], injected, 0.20)
    close(f"train spin x{calls:.0f} calls -> fit_s",
          _median(spun, "fit_s") - _median(base, "fit_s"), injected, 0.20)
    unmoved("train spin leaves setup_s",
            _median(spun, "setup_s") - _median(base, "setup_s"), injected)
    expect("perturbations leave simulated metrics bit-identical",
           {_simulated(r) for r in slept + spun} == {_simulated(base[0])},
           str(_simulated(base[0])))

    for name, ok, detail in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    failed = sum(1 for _, ok, _ in results if not ok)
    print(f"selfcheck: {len(results) - failed}/{len(results)} passed")
    return 1 if failed else 0
