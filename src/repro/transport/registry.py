"""Named transport backends: the sim/live execution axis.

``TRANSPORTS`` is one :class:`~repro.utils.registry.Registry` (see that
module for the shared contract); :func:`make_transport` instantiates a
backend with keyword overrides — the ``ExperimentSpec.transport_kwargs`` /
``--workers-live`` path.  Construction is cheap and side-effect free: the
live backend opens sockets and spawns workers only once a run starts.
"""

from __future__ import annotations

from repro.utils.registry import Registry

__all__ = ["TRANSPORTS", "register_transport", "make_transport"]

TRANSPORTS = Registry("transport", kwargs_field="transport_kwargs")
register_transport = TRANSPORTS.register
make_transport = TRANSPORTS.make
