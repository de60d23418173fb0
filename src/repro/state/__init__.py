"""The Slash State Backend (SSB) and its building blocks (paper Sec. 7).

* :mod:`repro.state.crdt` — conflict-free replicated data types used to
  merge concurrently-updated window state (Sec. 5.1): commutative
  aggregates for non-holistic windows, append logs for holistic ones;
* :mod:`repro.state.vector_clock` — per-executor watermarks combined into
  the vector clock that gates event-time window triggering;
* :mod:`repro.state.hash_index` / :mod:`repro.state.lss` — a FASTER-style
  hash index over a log-structured store with a hybrid (mutable tail /
  read-only head) log, which is what makes epoch deltas cheap to find;
* :mod:`repro.state.partition` — the key-space partitioning that assigns
  one *leader* executor per partition, every other executor acting as a
  *helper* holding a fragment;
* :mod:`repro.state.epoch` — the epoch-based coherence protocol: helpers
  ship fragment deltas to leaders at epoch boundaries;
* :mod:`repro.state.ssb` — the backend facade the executor talks to.
"""

from repro.state.crdt import (
    Crdt,
    SumCrdt,
    CountCrdt,
    MinCrdt,
    MaxCrdt,
    AvgCrdt,
    AppendLogCrdt,
    crdt_by_name,
)
from repro.state.vector_clock import VectorClock, WatermarkTracker
from repro.state.hash_index import HashIndex
from repro.state.lss import LogStructuredStore
from repro.state.partition import KeyPartitioner, PartitionDirectory
from repro.state.epoch import EpochManager, EpochDelta
from repro.state.ssb import SlashStateBackend, OperatorStateHandle

__all__ = [
    "Crdt",
    "SumCrdt",
    "CountCrdt",
    "MinCrdt",
    "MaxCrdt",
    "AvgCrdt",
    "AppendLogCrdt",
    "crdt_by_name",
    "VectorClock",
    "WatermarkTracker",
    "HashIndex",
    "LogStructuredStore",
    "KeyPartitioner",
    "PartitionDirectory",
    "EpochManager",
    "EpochDelta",
    "SlashStateBackend",
    "OperatorStateHandle",
]
