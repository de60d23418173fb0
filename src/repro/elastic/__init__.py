"""Elastic dataflow: live SSB partition migration and node join/leave.

The paper's shared-state design makes state *location* a runtime
decision: partition leadership lives in the
:class:`~repro.state.partition.PartitionDirectory`, helpers ship epoch
deltas to whoever the directory names, and the epoch ledger keeps
admission exactly-once per ``(operator, partition, helper)``.  This
package exploits that to re-point ownership while a query runs:

* :class:`~repro.elastic.plan.ElasticPlan` — the declarative rescale
  schedule (when, which action, which strategy, how many ranges);
* :class:`~repro.elastic.planner.MigrationPlanner` — decides *which*
  partitions move *where* for a join/leave/rebalance;
* :class:`~repro.elastic.migration.SlashElasticCoordinator` — executes
  the moves live against the Slash executors (attached at
  ``sim.elastic``), with all-at-once and Megaphone-style fluid
  strategies, in-flight delta forwarding, and fenced term bumps;
* :class:`~repro.elastic.exchange.ElasticExchangeCoordinator` — the
  UpPar analogue: a route-table flip with per-channel reroute markers.

A rescale happens at the plan's ``rescale_at``: the schedule comes from
outside, as it does for Megaphone.
"""

from repro.elastic.plan import ElasticPlan, PartitionMove, subrange_of
from repro.elastic.planner import MigrationPlanner

__all__ = [
    "ElasticPlan",
    "MigrationPlanner",
    "PartitionMove",
    "subrange_of",
]
