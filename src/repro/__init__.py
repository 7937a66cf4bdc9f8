"""FedHiSyn reproduction (ICPP 2022) — hierarchical synchronous federated
learning for resource and data heterogeneity, built entirely on NumPy.

Quick start
-----------
>>> from repro import ExperimentSpec, run_experiment
>>> spec = ExperimentSpec(method="fedhisyn", dataset="mnist_like",
...                       num_devices=10, rounds=5)
>>> result = run_experiment(spec)          # doctest: +SKIP
>>> result.final_accuracy                  # doctest: +SKIP

Package layout (see DESIGN.md for the full inventory):

- :mod:`repro.core` — FedHiSyn itself (clustering, rings, aggregation,
  Algorithm 1) and the shared server scaffolding.
- :mod:`repro.baselines` — FedAvg, TFedAvg, TAFedAvg, FedProx, FedAT,
  SCAFFOLD, plus the event-driven async pair FedAsync and FedBuff.
- :mod:`repro.nn` — pure-NumPy neural networks (the paper's MLP and CNN).
- :mod:`repro.datasets` — synthetic dataset generators + partitioners.
- :mod:`repro.device` — device model, heterogeneity, link delays.
- :mod:`repro.env` — pluggable environments: network latency/bandwidth,
  message loss, device availability, named presets (``ideal`` … ``wan``).
- :mod:`repro.compression` — update codecs (top-k sparsification with
  error feedback, QSGD quantization, delta encoding) on the channel API,
  with exact on-wire byte accounting.
- :mod:`repro.simulation` — the discrete-event scheduler (virtual clock
  + event queue) every method runs on, ring engine, transmission
  metering, time-to-accuracy histories.
- :mod:`repro.analysis` — Eq. 4 divergence, Theorem 5.1 bound, sweeps.
- :mod:`repro.experiments` — one-config experiment assembly.
- :mod:`repro.campaign` — sweep expansion, parallel cached campaigns,
  seed aggregation.

Methods self-register via :func:`repro.core.registry.register_method`;
``METHODS`` is that registry (every named axis is one
:class:`repro.utils.registry.Registry`).
"""

from repro.campaign import Campaign, CampaignResult, sweep
from repro.compression import CODECS, UpdateCodec, make_codec, register_codec
from repro.core.fedhisyn import FedHiSynConfig, FedHiSynServer
from repro.core.registry import register_method
from repro.env import Environment, make_environment, register_environment
from repro.experiments import ExperimentSpec, METHODS, build_experiment, run_experiment
from repro.simulation.results import RunResult
from repro.simulation.scheduler import Scheduler

__version__ = "1.3.0"

__all__ = [
    "FedHiSynServer",
    "FedHiSynConfig",
    "ExperimentSpec",
    "build_experiment",
    "run_experiment",
    "RunResult",
    "Scheduler",
    "METHODS",
    "register_method",
    "Environment",
    "make_environment",
    "register_environment",
    "UpdateCodec",
    "make_codec",
    "register_codec",
    "CODECS",
    "sweep",
    "Campaign",
    "CampaignResult",
    "__version__",
]
