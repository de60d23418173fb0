"""The declarative rescale schedule: when, what action, which strategy.

An :class:`ElasticPlan` is plain picklable data, mirroring
:class:`~repro.faults.plan.FaultPlan`: a :class:`Scenario` carries one
across process-pool boundaries and the engine's ``attach_elastic`` hook
validates it before the run starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigError
from repro.state.partition import int_column, stable_hash, stable_hash_array

# Rescale actions.
ACTION_JOIN = "join"  # spare node(s) come up; partitions move onto them
ACTION_LEAVE = "leave"  # a node is drained; its partitions move away
ACTION_REBALANCE = "rebalance"  # partitions move between existing nodes

ACTIONS = (ACTION_JOIN, ACTION_LEAVE, ACTION_REBALANCE)

#: Default number of key-range sub-moves for the fluid strategy.
DEFAULT_FLUID_RANGES = 8

#: Default spacing between fluid copy rounds, as a multiple of each
#: round's own stall — wide enough that the source drains its backlog
#: between rounds (the Megaphone effect the latency metric measures).
DEFAULT_FLUID_SPREAD = 4.0


def transfer_seconds(cluster_config, nbytes: int, buffer_bytes: int) -> float:
    """Wire + per-chunk NIC time to move ``nbytes`` of migrating state.

    The same RDMA cost surface the channels pay: one propagation + switch
    hop, the bytes at line rate, and per-buffer NIC processing for every
    chunk.  Both the Slash coordinator and the exchange coordinator use
    this, so the two strategies' stalls are directly comparable.
    """
    import math

    nic = cluster_config.node.nic
    chunks = max(1, math.ceil(nbytes / max(1, buffer_bytes)))
    return (
        nic.propagation_latency_s
        + cluster_config.switch_latency_s
        + nic.wire_time(nbytes)
        + chunks * nic.nic_processing_s
    )


def subrange_of(group_key, ranges: int) -> int:
    """Which fluid sub-range a group key belongs to.

    Uses high SplitMix64 bits, independent of the low bits that pick the
    key's partition, so every partition's keys spread evenly over the
    sub-ranges.
    """
    return (stable_hash(group_key) >> 17) % ranges


def subranges_of(group_keys: Sequence[Hashable], ranges: int) -> np.ndarray:
    """:func:`subrange_of` of every group key, as an int64 column.

    One vectorised hash when every key is a Python ``int`` that fits
    int64 (bit-identical to the scalar hash); the scalar route otherwise.
    """
    column = int_column(group_keys)
    if column is not None:
        hashed = stable_hash_array(column) >> np.uint64(17)
        return (hashed % np.uint64(ranges)).astype(np.int64)
    return np.fromiter(
        (subrange_of(key, ranges) for key in group_keys),
        dtype=np.int64,
        count=len(group_keys),
    )


@dataclass(frozen=True)
class PartitionMove:
    """One planned ownership transfer: ``partition`` from ``src`` to ``dst``."""

    partition: int
    src: int
    dst: int


@dataclass
class ElasticPlan:
    """One rescale event for a run (plain data; see module docstring).

    ``rescale_at`` is the simulated instant migration starts.  For a
    ``join``, ``add_nodes`` spare executors (no input flows) are
    provisioned at run start and the planner moves partitions onto
    them; for a ``leave``, ``drain_node`` gives up every partition it
    leads.
    """

    rescale_at: Optional[float] = None
    strategy: str = "fluid"
    action: str = ACTION_JOIN
    add_nodes: int = 1
    drain_node: Optional[int] = None
    fluid_ranges: int = DEFAULT_FLUID_RANGES
    fluid_spread: float = DEFAULT_FLUID_SPREAD

    def validate(self) -> None:
        """Static validation (strategy names are the engine's job)."""
        if self.action not in ACTIONS:
            raise ConfigError(
                f"unknown rescale action {self.action!r}; known: {list(ACTIONS)}"
            )
        if self.rescale_at is None:
            raise ConfigError("ElasticPlan needs rescale_at")
        if self.rescale_at < 0:
            raise ConfigError(
                f"rescale_at must be non-negative, got {self.rescale_at}"
            )
        if self.action == ACTION_JOIN and self.add_nodes < 1:
            raise ConfigError(
                f"join needs add_nodes >= 1, got {self.add_nodes}"
            )
        if self.action == ACTION_LEAVE and self.drain_node is None:
            raise ConfigError("leave needs drain_node")
        if self.fluid_ranges < 1:
            raise ConfigError(
                f"fluid_ranges must be >= 1, got {self.fluid_ranges}"
            )
        if self.fluid_spread < 0:
            raise ConfigError(
                f"fluid_spread must be >= 0, got {self.fluid_spread}"
            )

    @property
    def spare_nodes(self) -> int:
        """Extra flow-less executors the engine must provision at start."""
        return self.add_nodes if self.action == ACTION_JOIN else 0

    def params(self) -> dict:
        """Picklable dict form (Scenario.params embeds this)."""
        return {
            "rescale_at": self.rescale_at,
            "strategy": self.strategy,
            "action": self.action,
            "add_nodes": self.add_nodes,
            "drain_node": self.drain_node,
            "fluid_ranges": self.fluid_ranges,
            "fluid_spread": self.fluid_spread,
        }
