"""Discrete-event simulation substrate for the rack-scale RDMA cluster.

``simnet`` provides:

* :mod:`repro.simnet.kernel` — a deterministic discrete-event kernel with
  generator-based processes, timeouts, signals, and stores
  (conceptually a small SimPy, built from scratch for this project);
* :mod:`repro.simnet.cluster` — nodes, cores, the switch, and link models;
* :mod:`repro.simnet.cost_model` — the analytical CPU micro-architecture
  cost model (top-down cycle accounting + cache model) used to charge
  engine operations;
* :mod:`repro.simnet.counters` — per-thread hardware-performance-counter
  emulation (instructions, cycles by category, cache misses, memory bytes).
"""

from repro.simnet.kernel import (
    Simulator,
    Process,
    Timeout,
    Signal,
    Store,
    AllOf,
)
from repro.simnet.cluster import Cluster, Node, Core, Link
from repro.simnet.counters import CycleCategory, HwCounters
from repro.simnet.cost_model import (
    CostModel,
    CostProfile,
    CacheModel,
    OpCost,
)

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "Signal",
    "Store",
    "AllOf",
    "Cluster",
    "Node",
    "Core",
    "Link",
    "CycleCategory",
    "HwCounters",
    "CostModel",
    "CostProfile",
    "CacheModel",
    "OpCost",
]
