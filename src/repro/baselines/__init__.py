"""The paper's six comparison methods plus the event-driven async family.

All subclass :class:`repro.core.server.FederatedServer`, so they share
participant sampling, the virtual clock, transmission metering and
evaluation with FedHiSyn — only the round algorithm differs.

========== =============================================================
Method      One round (duration R = slowest participant's unit time)
========== =============================================================
FedAvg      every participant trains for the whole R (fast devices run
            more epochs), sample-weighted average (the paper's
            "asynchronous-setting FedAvg" description)
TFedAvg     strictly synchronous: exactly one training unit each, the
            server waits for the slowest
TAFedAvg    fully asynchronous: a device uploads after every unit, the
            server mixes it into the global model immediately
FedProx     FedAvg plus a proximal term toward the round-start model
FedAT       capacity tiers; synchronous inside a tier, tiers update the
            server asynchronously, cross-tier weighted aggregation
SCAFFOLD    synchronous control-variate correction; each transfer costs
            two model units (model + variate)
========== =============================================================

The asynchronous pair runs on the discrete-event scheduler instead of
rounds (``config.rounds`` counts server aggregations):

========== =============================================================
FedAsync    every arrived upload immediately mixes into the global model
            with rate ``alpha * decay(staleness)``
FedBuff     uploads buffer as staleness-weighted deltas; the server steps
            once per ``buffer_goal`` arrivals
========== =============================================================
"""

from repro.baselines.fedavg import FedAvgConfig, FedAvgServer
from repro.baselines.fedasync import FedAsyncConfig, FedAsyncServer
from repro.baselines.fedat import FedATConfig, FedATServer
from repro.baselines.fedbuff import FedBuffConfig, FedBuffServer
from repro.baselines.fedprox import FedProxConfig, FedProxServer
from repro.baselines.scaffold import ScaffoldConfig, ScaffoldServer
from repro.baselines.tafedavg import TAFedAvgConfig, TAFedAvgServer
from repro.baselines.tfedavg import TFedAvgConfig, TFedAvgServer

__all__ = [
    "FedAvgConfig",
    "FedAvgServer",
    "FedAsyncConfig",
    "FedAsyncServer",
    "FedBuffConfig",
    "FedBuffServer",
    "TFedAvgConfig",
    "TFedAvgServer",
    "TAFedAvgConfig",
    "TAFedAvgServer",
    "FedProxConfig",
    "FedProxServer",
    "FedATConfig",
    "FedATServer",
    "ScaffoldConfig",
    "ScaffoldServer",
]
