"""Reliable-connection setup between nodes.

Mirrors the connection-manager handshake of an RDMA application: each side
creates a QP, the pair is transitioned to ready-to-send, and memory
regions are registered so their rkeys can be exchanged out of band.

The :class:`ConnectionManager` also tracks how many QPs exist, which lets
tests assert the paper's ``n^2`` channel count for SSB state
synchronisation (Sec. 7.2.2, setup phase).
"""

from __future__ import annotations

from repro.common.errors import ProtocolError
from repro.rdma.region import MemoryRegion
from repro.rdma.verbs import QueuePair
from repro.simnet.cluster import Cluster


class ConnectionManager:
    """Creates and tracks QP pairs and registers regions on a cluster."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self._qps: list[QueuePair] = []

    @property
    def connection_count(self) -> int:
        """Number of reliable connections (QP pairs)."""
        return len(self._qps) // 2

    def connect(self, a: int, b: int, name: str = "") -> tuple[QueuePair, QueuePair]:
        """Establish a reliable connection between nodes ``a`` and ``b``.

        Returns ``(qp_a, qp_b)``: the endpoint owned by each side.  The two
        QPs are peered, so SENDs posted on one arrive on the other.
        """
        if a == b:
            raise ProtocolError(f"cannot connect node {a} to itself")
        node_a = self.cluster.node(a)
        node_b = self.cluster.node(b)
        label = name or f"conn:{a}<->{b}"
        qp_a = QueuePair(node_a, node_b, self.cluster.link(a, b), name=f"{label}.a")
        qp_b = QueuePair(node_b, node_a, self.cluster.link(b, a), name=f"{label}.b")
        qp_a.peer_queue = qp_b.recv_queue
        qp_b.peer_queue = qp_a.recv_queue
        self._qps.extend((qp_a, qp_b))
        return qp_a, qp_b

    def register_region(self, node: int, nbytes: int, name: str = "") -> MemoryRegion:
        """Register an RDMA-capable memory region on ``node``."""
        node_obj = self.cluster.node(node)
        if nbytes > node_obj.config.dram_bytes:
            raise ProtocolError(
                f"cannot register {nbytes} bytes on node {node}: exceeds DRAM"
            )
        return MemoryRegion(node, nbytes, name=name or f"mr:node{node}")
