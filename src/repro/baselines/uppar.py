"""RDMA UpPar — the paper's straw-man 'lightweight integration' baseline.

UpPar keeps the classical scale-out architecture (hash re-partitioning,
consumer-local state, dedicated network threads) but swaps socket
exchange for Slash's own RDMA channels (the paper implements it exactly
this way: 'we use Slash's RDMA channel to implement RDMA UpPar',
Sec. 8.1.1).  Same-node exchange uses the memcpy-priced local channel.

The point of this baseline in the paper — and in this reproduction — is
that fast links alone do not fix the design: partitioning dominates the
sender's cycles and the receiver spins waiting on it.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.costs import UPPAR_COSTS, ExchangeCosts
from repro.baselines.partitioned import PartitionedEngine, _RunContext
from repro.channel.channel import LocalChannel, RdmaChannel
from repro.common.config import (
    ClusterConfig,
    DEFAULT_BUFFER_BYTES,
    DEFAULT_CREDITS,
)
from repro.core.system import (
    CAP_JOINS,
    CAP_SANITIZE,
    CAP_SCALE_OUT,
    CAP_SESSION_WINDOWS,
    MIGRATION_STRATEGIES,
    STRATEGY_ASYNC_SNAPSHOT,
)
from repro.rdma.connection import ConnectionManager
from repro.simnet.cluster import Node


class UpParEngine(PartitionedEngine):
    """Scale-out SPE over RDMA channels with hash re-partitioning."""

    name = "uppar"
    capabilities = frozenset(
        {CAP_SCALE_OUT, CAP_JOINS, CAP_SESSION_WINDOWS, CAP_SANITIZE}
    )
    # Live rescale rides the route-table exchange coordinator
    # (elastic/exchange.py); Flink stays static on purpose — the
    # comparison needs a non-elastic engine for the CapabilityError path.
    supported_migration_strategies = frozenset(MIGRATION_STRATEGIES)
    # Data-plane kinds ride Slash's RDMA channels directly; crash and
    # partition plans go through the aligned-snapshot + global-restart
    # plane (membership over per-node proxies, Flink-style recovery —
    # see faults/snapshots.py).  Stall and duplicate-delta stay out:
    # both act on Slash executor internals a partitioned worker lacks.
    supported_fault_kinds = frozenset(
        {
            "nic-flap",
            "drop-chunk",
            "credit-starvation",
            "node-crash",
            "net-partition",
            "asym-partition",
            "slow-node",
            "jitter",
        }
    )
    supported_recovery_strategies = frozenset({STRATEGY_ASYNC_SNAPSHOT})

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        credits: int = DEFAULT_CREDITS,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        costs: ExchangeCosts = UPPAR_COSTS,
    ):
        super().__init__(costs, cluster_config, credits, buffer_bytes)
        self._cm: Optional[ConnectionManager] = None

    def _make_channel(self, ctx: _RunContext, src: Node, dst: Node, name: str):
        if src.index == dst.index:
            return LocalChannel(
                ctx.sim, src, credits=self.credits,
                buffer_bytes=self.buffer_bytes, name=name,
            )
        if self._cm is None or self._cm.cluster is not ctx.cluster:
            self._cm = ConnectionManager(ctx.cluster)
        return RdmaChannel.create(
            self._cm, src.index, dst.index,
            credits=self.credits, buffer_bytes=self.buffer_bytes, name=name,
        )
