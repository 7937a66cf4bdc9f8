"""End-to-end benchmark ledger for the FedHiSyn reproduction.

Four long workloads, nine end-to-end metrics and a per-layer trace
taken entirely from outside ``src/`` (see ``README.md`` in this directory).

    PYTHONPATH=src python -m benchmarks.e2e             # every workload
    PYTHONPATH=src python -m benchmarks.e2e --trace     # + per-layer numbers
    PYTHONPATH=src python -m benchmarks.e2e --selfcheck
    python3 benchmarks/e2e/run.py --workload ring_lab --seed 0 --seconds 28 --trace 0
"""
