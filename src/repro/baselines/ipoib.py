"""IP-over-InfiniBand socket channels — the 'plug-and-play' data plane.

IPoIB lets unmodified socket code run on an RDMA NIC, but (per Binnig et
al., VLDB'16, and the paper's Sec. 3.1) it neither saturates the link
nor avoids per-message CPU cost: every send and receive crosses the
kernel (syscall + copy), and the effective bandwidth of the 100 Gb/s
port drops to a fraction of ``ib_write_bw``.

:class:`IpoibChannel` exposes the same endpoint API as the RDMA channel
(``send`` / ``recv`` / ``try_recv`` / ``release`` / ``close``), so the
partitioned engines are data-plane agnostic.  Flow control models a
bounded TCP send window with ``credits`` in-flight buffers.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.channel.channel import CHANNEL_EOS
from repro.channel.protocol import ChannelStats, FlowControl
from repro.common.errors import ProtocolError
from repro.simnet.cluster import BandwidthPipe, Cluster, Core, Node
from repro.simnet.cost_model import OpCost
from repro.simnet.kernel import Store


class IpoibFabric:
    """Per-run registry of each node's IPoIB TX/RX pipes.

    All socket traffic of one node shares these two pipes, so fan-in
    congestion and bandwidth ceilings behave like the RDMA data plane —
    just with a far lower rate.
    """

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self._tx: dict[int, BandwidthPipe] = {}
        self._rx: dict[int, BandwidthPipe] = {}

    def tx(self, node: Node) -> BandwidthPipe:
        return self._pipe(self._tx, node, "tx")

    def rx(self, node: Node) -> BandwidthPipe:
        return self._pipe(self._rx, node, "rx")

    def _pipe(self, pool: dict[int, BandwidthPipe], node: Node, kind: str) -> BandwidthPipe:
        pipe = pool.get(node.index)
        if pipe is None:
            pipe = BandwidthPipe(
                self.sim,
                node.config.nic.ipoib_bandwidth_bytes_per_s,
                name=f"node{node.index}.ipoib_{kind}",
            )
            pool[node.index] = pipe
        return pipe


def _syscall_cost(node: Node) -> OpCost:
    """CPU price of one socket syscall (send or recv) incl. kernel copy."""
    cycles = node.config.nic.ipoib_syscall_cycles
    return OpCost(
        instructions=cycles / 3.0,
        retiring=cycles * 0.25,
        frontend=cycles * 0.15,
        core=cycles * 0.45,
        memory=cycles * 0.15,
    )


class IpoibChannel:
    """A socket connection between two workers (possibly on one node)."""

    def __init__(
        self,
        fabric: IpoibFabric,
        src: Node,
        dst: Node,
        credits: int = 32,
        buffer_bytes: int = 64 * 1024,
        name: str = "ipoib",
    ):
        self.fabric = fabric
        self.sim = fabric.sim
        self.src = src
        self.dst = dst
        self.buffer_bytes = buffer_bytes
        self.name = name
        self.stats = ChannelStats()
        self._flow = FlowControl(credits)
        self._arrivals: Store = self.sim.store(name=f"{name}.arrivals")
        self._acks: Store = self.sim.store(name=f"{name}.acks")
        self._eos_seen = False
        self._closed = False
        self._notify: Optional[tuple[Store, Any]] = None
        #: Credit-starvation fault surface (same names as the RDMA
        #: consumer endpoint so the injector drives both uniformly).
        self.withhold_credits = False
        self._withheld = 0

    # The channel is both of its endpoints (a property, not an attribute
    # holding itself: that would be a reference cycle).
    producer = consumer = property(lambda self: self)

    def notify_on_arrival(self, store: Store, token: Any) -> None:
        """Also put ``token`` into ``store`` on every arrival (fan-in)."""
        self._notify = (store, token)

    # -- producer side ------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, core: Core, payload: Any, nbytes: int) -> Generator[Any, Any, None]:
        """Socket send: syscall + kernel copy + NIC, window-limited."""
        if self._closed:
            raise ProtocolError(f"{self.name}: send after EOS")
        if nbytes > self.buffer_bytes:
            raise ProtocolError(
                f"{self.name}: payload {nbytes} exceeds buffer {self.buffer_bytes}"
            )
        self._drain_acks()
        while not self._flow.can_send():
            stall_start = self.sim.now
            yield from core.spin_wait(self._acks.get())
            self._flow.refill(1)
            self.stats.record_stall(self.sim.now - stall_start)
        self._flow.spend()
        yield from core.execute(_syscall_cost(self.src), 1.0)
        # Kernel copy of the payload into the socket buffer.
        copy = self.src.cost_model.cache.streaming_cost(2 * max(nbytes, 1))
        yield from core.execute(copy, 1.0)
        core.counters.count_network(nbytes)
        self.sim.call_in(0.0, self._launch, payload, nbytes)
        self.stats.record_send(nbytes)

    # The segment's wire path is a chain of kernel callbacks, one entry
    # per hop: the launch, TX (again after each RTO), flight, RX.
    def _launch(self, payload: Any, nbytes: int) -> None:
        item = (self.sim.now, payload, nbytes)
        if self.src.index == self.dst.index:
            # Loopback: no NIC, but still a kernel round trip.
            self.sim.call_in(5e-6, self._arrive, item)
        else:
            self._transmit(item, 0, None)

    def _transmit(self, item: tuple, attempts: int, rto: Optional[float]) -> None:
        sim = self.sim
        finish = self.fabric.tx(self.src).reserve(max(item[2], 64))
        sim.call_in(float(finish - sim.now), self._transmitted, item, attempts, rto)

    def _transmitted(self, item: tuple, attempts: int, rto: Optional[float]) -> None:
        sim = self.sim
        # TCP over a lossy path: the injector may eat the segment; the
        # sender's stack retransmits after an RTO that backs off
        # exponentially, up to its retry budget.
        faults = sim.faults
        if faults is not None:
            if rto is None:
                rto = faults.rto_s
            if faults.should_drop_write(self.src.index, max(item[2], 64)):
                attempts += 1
                if attempts > faults.max_retries:
                    raise ProtocolError(
                        f"{self.name}: {attempts - 1} retransmissions "
                        "exhausted (path black-holed?)"
                    )
                sim.call_in(float(rto), self._transmit, item, attempts, rto * 2.0)
                return
        # The jitter fault inflates the shared physical path, so the
        # socket fabric sees it just like the RDMA data plane does.
        sim.call_in(
            self.src.config.nic.ipoib_latency_s
            + self.fabric.cluster.extra_latency(self.src.index, self.dst.index),
            self._cross, item,
        )

    def _cross(self, item: tuple) -> None:
        sim = self.sim
        finish = self.fabric.rx(self.dst).reserve(max(item[2], 64))
        sim.call_in(float(finish - sim.now), self._arrive, item)

    def _arrive(self, item: tuple) -> None:
        self._arrivals.put(item)
        if self._notify is not None:
            store, token = self._notify
            store.put(token)

    def close(self, core: Core) -> Generator[Any, Any, None]:
        yield from self.send(core, CHANNEL_EOS, 0)
        self._closed = True

    def _drain_acks(self) -> None:
        while True:
            ok, _ack = self._acks.try_get()
            if not ok:
                return
            self._flow.refill(1)

    # -- consumer side ----------------------------------------------------------
    @property
    def eos(self) -> bool:
        return self._eos_seen

    @property
    def pending(self) -> int:
        return len(self._arrivals)

    def try_recv(self, core: Core) -> tuple[bool, Any, int]:
        ok, item = self._arrivals.try_get()
        if not ok:
            return False, None, 0
        return self._take(core, item)

    def recv(self, core: Core) -> Generator[Any, Any, tuple[Any, int]]:
        item = yield from core.spin_wait(self._arrivals.get())
        _ok, payload, nbytes = self._take(core, item)
        return payload, nbytes

    def _take(self, core: Core, item: tuple[float, Any, int]) -> tuple[bool, Any, int]:
        sent_at, payload, nbytes = item
        self.stats.record_latency(self.sim.now - sent_at)
        if payload is CHANNEL_EOS:
            self._eos_seen = True
        return True, payload, nbytes

    def release(self, core: Core) -> Generator[Any, Any, None]:
        """Recv-side syscall; frees one window slot for the sender."""
        yield from core.execute(_syscall_cost(self.dst), 1.0)
        if self.withhold_credits:
            # Zero-window fault: the ack stays in the receiver's stack
            # until the injector lifts the starvation.
            self._withheld += 1
            return
        self._acks.put(1)

    def flush_withheld(self, core: Core) -> Generator[Any, Any, None]:
        """Release every ack the starvation window swallowed."""
        while self._withheld > 0:
            self._withheld -= 1
            yield from core.execute(_syscall_cost(self.dst), 1.0)
            self._acks.put(1)
