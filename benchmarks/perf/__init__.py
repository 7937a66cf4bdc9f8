"""Tracked performance microbenchmarks.

``python -m benchmarks.perf --scale quick --out BENCH_perf.json`` times the
reproduction's hot paths — local-SGD train units, aggregation, FedHiSyn and
FedAvg rounds, the scheduler, codecs and the live transport — and writes
the numbers to ``BENCH_perf.json`` so every PR leaves a perf trajectory
behind.

A row carries a before/after pair only where its "before" is a live
oracle the code can still run — the scalar trainer
(``batched_trainer=None``), the heap ``EventQueue``, an unarmed fault
model — timed interleaved on the same inputs after both sides are checked
to agree.  Every other row reports ``after_s`` alone.
"""

# NOTE: no eager imports here — `python -m benchmarks.perf` must reach
# __main__.py's sys.path bootstrap before anything imports `repro`.

__all__ = ["SCALES", "run_suite"]


def __getattr__(name):
    if name in __all__:
        from benchmarks.perf import suite

        return getattr(suite, name)
    raise AttributeError(name)
