"""A Flink-1.9-shaped scale-out SPE on IP-over-InfiniBand.

This models the paper's 'plug-and-play integration' system under test:
the same queue-based re-partitioning dataflow as RDMA UpPar, but

* the exchange rides **socket channels over IPoIB** (kernel syscalls,
  copies, and a fraction of the link's RDMA bandwidth);
* all compute carries a **managed-runtime multiplier** (JVM dispatch,
  object churn) and per-record **serialization** on both sides of every
  network hop — the overheads the paper cites from Zeuch et al. [70];
* same-node exchange still pays loopback serde (Flink serialises across
  local exchanges between task slots unless operators chain).

Configuration follows the paper's Flink setup: half the cores process,
half do network I/O — reflected here as the partitioner/consumer split
plus the per-buffer flush overheads of queue-mediated networking.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.costs import FLINK_COSTS, ExchangeCosts
from repro.baselines.ipoib import IpoibChannel, IpoibFabric
from repro.baselines.partitioned import PartitionedEngine, _RunContext
from repro.common.config import ClusterConfig, DEFAULT_BUFFER_BYTES
from repro.core.system import (
    CAP_JOINS,
    CAP_SANITIZE,
    CAP_SCALE_OUT,
    CAP_SESSION_WINDOWS,
)
from repro.simnet.cluster import Node

# TCP gives a deeper in-flight window than an RDMA ring of 8 buffers.
FLINK_WINDOW_BUFFERS = 32


class FlinkEngine(PartitionedEngine):
    """Queue-based partitioning on a managed runtime over IPoIB."""

    name = "flink"
    capabilities = frozenset(
        {CAP_SCALE_OUT, CAP_JOINS, CAP_SESSION_WINDOWS, CAP_SANITIZE}
    )
    # Data-plane faults only: the IPoIB channel retransmits dropped
    # segments with exponential RTO backoff, its per-node fabric pipes
    # degrade under a NIC flap, and a zero-window fault withholds its
    # acks — but there are no checkpoints or membership, so crash and
    # partition plans stay rejected.  slow-node rides the node cost
    # model (every priced op slows) and jitter the shared physical path
    # the IPoIB wire consults.
    supported_fault_kinds = frozenset(
        {"nic-flap", "drop-chunk", "credit-starvation", "slow-node", "jitter"}
    )

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        costs: ExchangeCosts = FLINK_COSTS,
    ):
        super().__init__(costs, cluster_config, FLINK_WINDOW_BUFFERS, buffer_bytes)
        self._fabric: Optional[IpoibFabric] = None

    def _make_channel(self, ctx: _RunContext, src: Node, dst: Node, name: str):
        if self._fabric is None or self._fabric.sim is not ctx.sim:
            self._fabric = IpoibFabric(ctx.sim)
        return IpoibChannel(
            self._fabric, src, dst,
            credits=self.credits, buffer_bytes=self.buffer_bytes, name=name,
        )

    def _serde_records(self, n: int) -> float:
        # Every exchanged record is serialized (sender) or deserialized
        # (receiver); callers invoke this once per side.
        return float(n)

    def _fault_pipes(self, ctx: _RunContext, node_index: int) -> list:
        # A NIC flap throttles the IPoIB fabric the same way it throttles
        # the RDMA pipes (it is the same physical port).
        if self._fabric is None:
            return []
        node = ctx.cluster.node(node_index)
        return [self._fabric.tx(node), self._fabric.rx(node)]
