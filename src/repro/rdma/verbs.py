"""Queue pairs, work requests, and completion queues.

The API mirrors the verbs calls the paper's C++ prototype would issue:

* ``post_write`` — one-sided RDMA WRITE into a remote
  :class:`~repro.rdma.region.MemoryRegion`.  One network trip; the remote
  CPU is never involved (Sec. 6.3 of the paper selects WRITE over READ for
  exactly this reason).  With ``signaled=False`` (selective signaling) no
  completion entry is generated, saving the poster a CQ poll.
* ``post_send`` / ``recv_queue`` — two-sided SEND/RECV used for small
  control messages (credit returns, epoch tokens).
* ``poll_cq`` — drain the send completion queue.

Calls that occupy the CPU (posting a doorbell, polling a CQ) are
generators to be driven with ``yield from`` inside a worker process; they
charge the calling :class:`~repro.simnet.cluster.Core`.  The wire-side
work runs asynchronously as a chain of kernel callbacks (one entry per
hop, :meth:`~repro.simnet.cluster.Link.post`), which is what lets a
coroutine scheduler overlap compute with in-flight RDMA.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Generator, Optional

from repro.common.errors import ProtocolError
from repro.rdma.region import MemoryRegion
from repro.simnet.cluster import Core, Link, Node
from repro.simnet.cost_model import OpCost
from repro.simnet.kernel import Signal, Store

_wr_ids = itertools.count(1)


class WorkKind(str, Enum):
    """The verb a completion refers to."""

    WRITE = "write"
    SEND = "send"
    RECV = "recv"


@dataclass(frozen=True)
class Completion:
    """One completion-queue entry."""

    wr_id: int
    kind: WorkKind
    nbytes: int


class CompletionQueue:
    """A polled queue of :class:`Completion` entries."""

    def __init__(self, name: str = ""):
        self.name = name
        self._entries: list[Completion] = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, completion: Completion) -> None:
        """NIC-side: append a completion."""
        self._entries.append(completion)

    def drain(self, max_entries: Optional[int] = None) -> list[Completion]:
        """Remove and return up to ``max_entries`` completions (FIFO)."""
        if max_entries is None or max_entries >= len(self._entries):
            drained, self._entries = self._entries, []
            return drained
        drained = self._entries[:max_entries]
        del self._entries[:max_entries]
        return drained


class QueuePair:
    """One endpoint of a reliable connection.

    Writes and sends posted on the same QP are delivered in order (the
    underlying simulated TX/RX pipes are FIFO per node pair, matching the
    in-order guarantee of an IB reliable connection).
    """

    def __init__(self, local: Node, remote: Node, link: Link, name: str = ""):
        self.local = local
        self.remote = remote
        self.link = link
        self.name = name or f"qp:{local.index}->{remote.index}"
        self.send_cq = CompletionQueue(name=f"{self.name}.scq")
        self.recv_queue: Store = local.sim.store(name=f"{self.name}.rq")
        #: The paired QP's receive queue, where SENDs land (the queue,
        #: not the peer: two peers holding each other are a cycle).
        self.peer_queue: Optional[Store] = None
        self.outstanding = 0

    # -- one-sided -----------------------------------------------------------
    def post_write(
        self,
        core: Core,
        payload: Any,
        nbytes: int,
        remote_region: MemoryRegion,
        remote_offset: int,
        rkey: Optional[int] = None,
        signaled: bool = True,
        ack_signal: Optional[Signal] = None,
        xfer_state: Optional[dict] = None,
    ) -> Generator[Any, Any, int]:
        """Post an RDMA WRITE; returns the work-request id immediately.

        Drive with ``yield from``.  Only the doorbell occupies the caller;
        the transfer itself proceeds asynchronously and, on delivery,
        atomically stores the payload into the remote region (footer
        semantics).  A signaled completion reaches :attr:`send_cq` after
        the hardware ACK returns.

        Fault-mode extras (used by reliable channel transfers):
        ``ack_signal`` fires once when the payload lands, after the ACK
        propagates back; ``xfer_state`` is a shared first-delivery-wins
        record, so a retransmission of a slow-but-delivered WRITE is
        discarded instead of trampling the occupied ring slot.
        """
        if remote_region.node_index != self.remote.index:
            raise ProtocolError(
                f"{self.name}: WRITE targets region on node "
                f"{remote_region.node_index}, but QP peers node {self.remote.index}"
            )
        wr_id = next(_wr_ids)
        yield from core.execute(_doorbell_cost(self.local), 1.0)
        core.counters.count_network(nbytes)
        self.outstanding += 1
        key = rkey if rkey is not None else remote_region.rkey
        self.local.sim.call_in(
            0.0, self._launch_write, wr_id, payload, nbytes, remote_region,
            remote_offset, key, signaled, ack_signal, xfer_state,
        )
        return wr_id

    # Outstanding WQEs beyond roughly this many thrash the NIC's on-chip
    # WQE cache, inflating per-message processing (Kalia et al., ATC'16;
    # the effect behind the paper's 'c=64 regresses by ~10%' finding).
    WQE_CACHE_DEPTH = 48

    # A work request is a chain of kernel callbacks: the launch entry (the
    # NIC picks the WQE up, reading the pressure of that instant), the
    # link's hops, then the landing and the ACK hops below.
    def _launch_write(self, wr_id, payload, nbytes, *landing) -> None:
        pressure = 1.0 + max(0, self.outstanding - 1) / self.WQE_CACHE_DEPTH
        overhead = self.local.config.nic.nic_processing_s * pressure
        self.link.post(
            nbytes, overhead, self._land_write, wr_id, payload, nbytes, *landing
        )

    def _land_write(
        self,
        wr_id: int,
        payload: Any,
        nbytes: int,
        remote_region: MemoryRegion,
        remote_offset: int,
        rkey: int,
        signaled: bool,
        ack_signal: Optional[Signal],
        xfer_state: Optional[dict],
    ) -> None:
        faults = self.local.sim.faults
        if faults is not None and (
            faults.should_drop_write(self.local.index, nbytes)
            or faults.is_crashed_node(self.remote.index)
            or faults.is_crashed_node(self.local.index)
        ):
            # The WRITE is lost on the wire (injected drop), lands on a
            # dead node, or was held across a partition by a sender that
            # got fenced in the meantime (its NIC is admin-down; the
            # retained copy of the delta is what recovery re-delivers).
            # Either way it never stores, and the poster's missing ACK
            # triggers retransmission or peer-death handling.
            self.outstanding -= 1
            return
        if xfer_state is not None and xfer_state.get("delivered"):
            # A retransmission raced the original, which was slow but not
            # lost: first delivery wins, the duplicate is discarded.
            self.outstanding -= 1
            return
        remote_region.remote_store(rkey, remote_offset, payload, nbytes)
        if xfer_state is not None:
            xfer_state["delivered"] = True
        self.outstanding -= 1
        if ack_signal is not None and not ack_signal.fired:
            # The ACK crosses the fabric back before the signal fires.
            self.local.sim.call_in(
                self.local.config.nic.propagation_latency_s,
                self._ack_write, wr_id, nbytes, signaled, ack_signal,
            )
        elif signaled:
            self._complete(wr_id, WorkKind.WRITE, nbytes)

    def _ack_write(self, wr_id: int, nbytes: int, signaled: bool, ack_signal: Signal) -> None:
        if not ack_signal.fired:
            ack_signal.fire(nbytes)
        if signaled:
            self._complete(wr_id, WorkKind.WRITE, nbytes)

    def _complete(self, wr_id: int, kind: WorkKind, nbytes: int) -> None:
        """The ACK crosses the fabric back to the sender NIC, which then
        pushes the completion."""
        self.local.sim.call_in(
            self.local.config.nic.propagation_latency_s,
            self.send_cq.push, Completion(wr_id, kind, nbytes),
        )

    # -- two-sided -------------------------------------------------------------
    def post_send(
        self, core: Core, payload: Any, nbytes: int, signaled: bool = False
    ) -> Generator[Any, Any, int]:
        """Post a two-sided SEND; the peer receives it on its recv queue."""
        if self.peer_queue is None:
            raise ProtocolError(f"{self.name}: SEND on an unpaired QP")
        wr_id = next(_wr_ids)
        yield from core.execute(_doorbell_cost(self.local), 1.0)
        core.counters.count_network(nbytes)
        self.local.sim.call_in(
            0.0, self.link.post, nbytes, None, self._land_send,
            wr_id, payload, nbytes, signaled,
        )
        return wr_id

    def _land_send(self, wr_id: int, payload: Any, nbytes: int, signaled: bool) -> None:
        self.peer_queue.put((payload, nbytes))
        if signaled:
            self._complete(wr_id, WorkKind.SEND, nbytes)

    # -- polling ----------------------------------------------------------------
    def poll_cq(self, core: Core, max_entries: Optional[int] = None) -> Generator[Any, Any, list[Completion]]:
        """Drain the send CQ, charging one CQ-poll cost to the caller."""
        yield from core.execute(_cq_poll_cost(self.local), 1.0)
        return self.send_cq.drain(max_entries)

    def try_recv(self) -> tuple[bool, Any, int]:
        """Non-blocking RECV: ``(ok, payload, nbytes)``."""
        ok, item = self.recv_queue.try_get()
        if not ok:
            return False, None, 0
        payload, nbytes = item
        return True, payload, nbytes

    def recv(self) -> Signal:
        """Blocking RECV: a signal that fires with ``(payload, nbytes)``."""
        return self.recv_queue.get()

    def __repr__(self) -> str:
        return f"QueuePair({self.name!r}, outstanding={self.outstanding})"


def _doorbell_cost(node: Node) -> OpCost:
    """CPU price of ringing the NIC doorbell (an MMIO write)."""
    cycles = node.config.nic.doorbell_cycles
    return OpCost(instructions=cycles / 3.0, retiring=cycles * 0.2, core=cycles * 0.8)


def _cq_poll_cost(node: Node) -> OpCost:
    """CPU price of one completion-queue poll."""
    cycles = node.config.nic.cq_poll_cycles
    return OpCost(instructions=cycles / 2.0, retiring=cycles * 0.3, core=cycles * 0.7)
