"""Discrete-event simulation substrate.

Everything here runs on **virtual time**: each device advertises a unit
time (see :mod:`repro.device.heterogeneity`), a round lasts as long as the
slowest participant's unit (the paper's convention), and async methods pop
upload events off a queue in time order.  No wall-clock coupling anywhere.
"""

from repro.simulation.clock import VirtualClock
from repro.simulation.events import CalendarQueue, Event, EventQueue
from repro.simulation.engine import RingRoundEngine, async_upload_schedule
from repro.simulation.metrics import MetricsHistory, TransmissionMeter
from repro.simulation.results import RunResult
from repro.simulation.scheduler import (
    Scheduler,
    completed_units,
    completed_units_array,
)

__all__ = [
    "VirtualClock",
    "Event",
    "EventQueue",
    "CalendarQueue",
    "Scheduler",
    "RingRoundEngine",
    "async_upload_schedule",
    "completed_units",
    "completed_units_array",
    "TransmissionMeter",
    "MetricsHistory",
    "RunResult",
]
