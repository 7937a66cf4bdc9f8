"""FedHiSyn core: the paper's primary contribution.

- :mod:`repro.core.clustering` — capacity clustering (1-D k-means on local
  training time, Section 4.1).
- :mod:`repro.core.ring` — intra-class ring topologies (small-to-large,
  large-to-small, random; Observation 2).
- :mod:`repro.core.aggregation` — uniform (Eq. 9), class-time-weighted
  (Eq. 10) and sample-weighted (Eq. 3) aggregation.
- :mod:`repro.core.server` — shared federated-server scaffolding reused by
  every baseline.
- :mod:`repro.core.registry` — the method registry every server class
  registers itself into (``@register_method``).
- :mod:`repro.core.fedhisyn` — Algorithm 1.
"""

from repro.core.aggregation import (
    class_time_weighted_average,
    sample_weighted_average,
    uniform_average,
)
from repro.core.clustering import cluster_by_capacity, equal_width_bins, kmeans_1d
from repro.core.fedhisyn import FedHiSynConfig, FedHiSynServer
from repro.core.registry import METHODS, MethodEntry, get_method, register_method
from repro.core.ring import build_ring, build_ring_eq5, build_rings
from repro.core.selection import (
    SELECTION_POLICIES,
    BernoulliSelection,
    DataSizeSelection,
    FastestSelection,
    SelectionPolicy,
    make_policy,
)
from repro.core.server import FederatedServer, ServerConfig

__all__ = [
    "kmeans_1d",
    "equal_width_bins",
    "cluster_by_capacity",
    "build_ring",
    "build_rings",
    "build_ring_eq5",
    "SelectionPolicy",
    "BernoulliSelection",
    "FastestSelection",
    "DataSizeSelection",
    "SELECTION_POLICIES",
    "make_policy",
    "METHODS",
    "MethodEntry",
    "register_method",
    "get_method",
    "uniform_average",
    "class_time_weighted_average",
    "sample_weighted_average",
    "FederatedServer",
    "ServerConfig",
    "FedHiSynConfig",
    "FedHiSynServer",
]
