"""Equivalence guarantees of the million-device event engine.

Two independent axes, both of which must be observationally invisible:

* **Engine** — calendar queue vs the heap reference.  Whole event traces
  (every dispatched ``(time, kind, tag)``) must be identical.
* **Packing** — waves (id-array events) vs one event per device.  The
  async server has one event path; what per-device events produced is
  frozen in ``tests/golden/async/event_matrix.json`` (captured from the
  last commit that had a per-device path — see ``tests/golden/generate.py``)
  and every cell must be replayed bit for bit: final weights, history,
  virtual time, meters, churn accounting, the resilience ledger and the
  dispatched-event count.

The base matrix is {fedasync, fedbuff} x {ideal, churn, flaky_mobile} x
faults on/off; the frozen record adds partial participation, a lossy
codec, crashes racing drops, checkpoints and a stop in mid-wave.
"""

import json

import pytest

from repro.experiments import ExperimentSpec, build_experiment
from repro.simulation import scheduler
from repro.simulation.events import EventQueue
from repro.simulation.scheduler import (
    BROADCAST_ARRIVAL,
    UNIT_COMPLETE,
    UPLOAD_ARRIVAL,
)
from tests.golden.generate import (
    EVENT_MATRIX,
    EVENT_MATRIX_PATH,
    event_observables,
)

MATRIX = [
    (method, env, faults)
    for method in ("fedasync", "fedbuff")
    for env in ("ideal", "churn", "flaky_mobile")
    for faults in ("none", "compound")
]

FROZEN = json.loads(EVENT_MATRIX_PATH.read_text())

HOT_KINDS = (UNIT_COMPLETE, UPLOAD_ARRIVAL, BROADCAST_ARRIVAL)


def _run(method, env, faults):
    server = build_experiment(
        ExperimentSpec(**EVENT_MATRIX[f"{method}-{env}-{faults}"])
    )
    server.record_trace = True
    server.fit()
    return server


def _wave_sizes(server):
    """Member counts of every dispatched hot-kind entry — the first field
    of the ``(len, first, last)`` trace tag."""
    return [
        tag[0] for _, kind, tag in server.scheduler.trace if kind in HOT_KINDS
    ]


@pytest.mark.parametrize("method,env,faults", MATRIX)
def test_calendar_engine_trace_identical_to_heap(method, env, faults, monkeypatch):
    s_cal = _run(method, env, faults)
    # The server builds its Scheduler inside fit(): swap the reference
    # heap in where the scheduler module constructs its queue.
    monkeypatch.setattr(scheduler, "CalendarQueue", EventQueue)
    s_heap = _run(method, env, faults)
    assert isinstance(s_heap.scheduler.queue, EventQueue)
    assert s_cal.scheduler.trace == s_heap.scheduler.trace
    assert s_cal.scheduler.events_processed == s_heap.scheduler.events_processed


def test_frozen_record_covers_the_matrix():
    assert set(FROZEN) == set(EVENT_MATRIX)
    assert {f"{m}-{e}-{f}" for m, e, f in MATRIX} <= set(FROZEN)


@pytest.mark.parametrize("cell", sorted(EVENT_MATRIX))
def test_batched_events_match_per_device_observables(cell):
    """The one path equals the frozen per-device record, in every
    observable of every cell — fault-armed cells included."""
    frozen = FROZEN[cell]
    assert frozen["spec"] == EVENT_MATRIX[cell]
    # Through JSON, like the record: tuples/ints normalize the same way
    # and floats round-trip exactly.
    got = json.loads(json.dumps(event_observables(EVENT_MATRIX[cell])))
    for name, want in frozen["observables"].items():
        assert got[name] == want, f"{cell}: '{name}' diverged"


def test_fault_machinery_forces_per_device_events():
    """An armed run packs nothing: per-member timer cancellation and
    timer/completion tie order need one entry per device."""
    server = _run("fedasync", "flaky_mobile", "compound")
    assert server._fault_machinery
    sizes = _wave_sizes(server)
    assert sizes and set(sizes) == {1}


def test_clean_path_batches_by_default():
    """A clean run rides waves: at least one hot-kind entry carries more
    than one member."""
    server = _run("fedasync", "ideal", "none")
    assert not server._fault_machinery
    assert max(_wave_sizes(server)) > 1
