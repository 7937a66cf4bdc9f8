"""Transport backends: who executes a round, over what medium.

Importing this package registers both backends:

* ``sim`` — the in-process discrete-event default (bit-identical no-op).
* ``live`` — coordinator + N worker OS processes over loopback UDP,
  cross-validated against the simulator.
"""

from repro.transport.base import LiveTransportStats, Transport
from repro.transport.live import LIVE_CAPABLE_METHODS, LiveTransport
from repro.transport.registry import TRANSPORTS, make_transport, register_transport
from repro.transport.sim import SimTransport

__all__ = [
    "LIVE_CAPABLE_METHODS",
    "LiveTransport",
    "LiveTransportStats",
    "SimTransport",
    "TRANSPORTS",
    "Transport",
    "make_transport",
    "register_transport",
]
