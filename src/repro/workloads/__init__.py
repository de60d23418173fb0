"""Benchmark workload generators (paper Sec. 8.1.2).

Each workload pairs a streaming query with a deterministic, seeded data
generator that produces one physical flow per worker thread:

* :mod:`repro.workloads.ysb` — the Yahoo! Streaming Benchmark: filter +
  project + 10-minute tumbling per-key count;
* :mod:`repro.workloads.nexmark` — NexMark queries NB7 (60 s tumbling MAX
  over bids, Pareto keys), NB8 (12 h tumbling join auction x seller), and
  NB11 (session join bid x seller);
* :mod:`repro.workloads.cluster_monitoring` — the Google-trace-shaped
  Cluster Monitoring benchmark: 2 s tumbling mean CPU per job;
* :mod:`repro.workloads.readonly` — the paper's self-developed Read-Only
  benchmark: a pure per-key occurrence count used for I/O drill-downs;
* :mod:`repro.workloads.distributions` — uniform / Zipf / Pareto key
  generators (Zipf as a :class:`ZipfTable` built once per workload), strictly-monotone timestamp synthesis, and the
  diurnal/flash-crowd burst envelopes + arrival schedules the overload
  plane paces admission against.
"""

from repro.workloads.base import Workload
from repro.workloads.distributions import (
    ZipfTable,
    arrival_times,
    burst_envelope,
    monotone_timestamps,
    tenant_ids,
    uniform_keys,
    zipf_keys,
    pareto_keys,
)
from repro.workloads.ysb import YsbWorkload, YSB_SCHEMA
from repro.workloads.cluster_monitoring import ClusterMonitoringWorkload, CM_SCHEMA
from repro.workloads.readonly import ReadOnlyWorkload, RO_SCHEMA
from repro.workloads.nexmark import (
    Nexmark7Workload,
    Nexmark8Workload,
    Nexmark11Workload,
    BID_SCHEMA,
    AUCTION_SCHEMA,
    SELLER_SCHEMA,
)

__all__ = [
    "Workload",
    "ZipfTable",
    "arrival_times",
    "burst_envelope",
    "tenant_ids",
    "monotone_timestamps",
    "uniform_keys",
    "zipf_keys",
    "pareto_keys",
    "YsbWorkload",
    "YSB_SCHEMA",
    "ClusterMonitoringWorkload",
    "CM_SCHEMA",
    "ReadOnlyWorkload",
    "RO_SCHEMA",
    "Nexmark7Workload",
    "Nexmark8Workload",
    "Nexmark11Workload",
    "BID_SCHEMA",
    "AUCTION_SCHEMA",
    "SELLER_SCHEMA",
]
