"""RDMA channel endpoints (paper Sec. 6).

A channel connects exactly one producer worker to one consumer worker.
The producer's :meth:`ProducerEndpoint.send` follows the transfer phase of
the protocol (Fig. 4 of the paper): acquire the next ring buffer, post an
unsignaled RDMA WRITE, and block only when out of credits.  The
consumer's :meth:`ConsumerEndpoint.recv` polls the ring in FIFO order and
:meth:`ConsumerEndpoint.release` returns a credit with a small two-sided
SEND after the buffer has been processed.

How a blocked call waits is fixed when the channel is built: by default
an endpoint spins on the calling core (charged as core-bound cycles); a
coroutine-scheduler owner passes ``wait=park`` so an empty channel parks
the task and the worker's other coroutines keep running (Sec. 5.3).
Under a fault plan the same loops race those waits against timeouts.

End-of-stream is an in-band sentinel (:data:`CHANNEL_EOS`) sent like any
other buffer, so it cannot overtake data.

:class:`LocalChannel` provides identical semantics between two workers on
the same node: payloads move with a memcpy priced through the DRAM pipe
instead of the NIC.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.channel.circular_queue import FOOTER_BYTES, CircularQueue
from repro.channel.protocol import ChannelStats, FlowControl
from repro.common.config import DEFAULT_BUFFER_BYTES, DEFAULT_CREDITS
from repro.common.errors import ChannelResetError, FaultError, ProtocolError
from repro.rdma.connection import ConnectionManager
from repro.rdma.verbs import QueuePair
from repro.simnet.cluster import Core
from repro.simnet.cost_model import OpCost
from repro.simnet.kernel import FirstOf, Signal, Simulator, Store, Timeout, Waitable
from repro.simnet.trace import trace

#: How an endpoint's owner blocks: ``value = yield from wait(waitable)``.
#: ``None`` spins on the calling core.
Wait = Optional[Callable[[Waitable], Generator[Any, Any, Any]]]


class _Eos:
    """Singleton end-of-stream marker."""

    def __repr__(self) -> str:
        return "CHANNEL_EOS"


CHANNEL_EOS = _Eos()


class _PoisonCredit:
    """Sentinel injected into a producer's credit queue by ``mark_dead``.

    Wakes a sender parked on credit from a peer that will never return
    one, without confusing the flow-control accounting.
    """

    def __repr__(self) -> str:
        return "POISON_CREDIT"


_POISON_CREDIT = _PoisonCredit()


class _ResetToken:
    """Sentinel injected into a consumer's arrival queue by ``force_reset``."""

    def __repr__(self) -> str:
        return "CHANNEL_RESET"


_RESET_TOKEN = _ResetToken()

# Wire size of a credit-return message (an 8-byte counter plus header).
CREDIT_MSG_BYTES = 16

#: CPU price of one local-memory footer poll (a cached load + compare).
POLL_COST = OpCost(instructions=6, retiring=1.5, core=1.0)


class ProducerEndpoint:
    """The sending side of a channel."""

    def __init__(
        self,
        sim: Simulator,
        qp: QueuePair,
        queue: CircularQueue,
        flow: FlowControl,
        stats: ChannelStats,
        name: str,
        signal_writes: bool = False,
        wait: Wait = None,
    ):
        self.sim = sim
        self.qp = qp
        self.queue = queue
        self.flow = flow
        self.stats = stats
        self.name = name
        #: Selective signaling (paper Sec. 3.2 / C2): data writes are
        #: normally unsignaled; True requests a completion per write and
        #: pays the CQ-poll cost (the ablation knob).
        self.signal_writes = signal_writes
        self.wait = wait
        self._next_slot = 0
        self._closed = False
        # Fault-mode state: a dead peer blackholes sends; the credit
        # ticket persists across timed-out waits so an abandoned wait can
        # never swallow a credit message.
        self._dead = False
        self._credit_ticket: Optional[Signal] = None

    @property
    def closed(self) -> bool:
        """Whether EOS has been sent."""
        return self._closed

    @property
    def dead(self) -> bool:
        """Whether the peer has been declared dead (sends are dropped)."""
        return self._dead

    def mark_dead(self) -> None:
        """Declare the consumer dead: drop future sends, wake credit waits."""
        if self._dead:
            return
        self._dead = True
        self.qp.recv_queue.put((_POISON_CREDIT, 0))

    def send(self, core: Core, payload: Any, nbytes: int) -> Generator[Any, Any, None]:
        """Transfer one buffer; drive with ``yield from``.

        Blocks when the producer holds no credit — the self-adjusting
        rate of Sec. 6.2.  Under a fault plan each credit wait races
        ``credit_timeout_s``; on expiry the producer checks whether the
        peer crashed (→ declare it dead and drop the send — the recovery
        protocol re-creates the data elsewhere) and otherwise keeps
        waiting with the *same* ticket, so a credit arriving after a
        timed-out wait is still applied, never lost.
        """
        if self._closed:
            raise ProtocolError(f"{self.name}: send after EOS")
        if self._dead:
            self._blackhole(nbytes)
            return
        self.queue.check_payload(nbytes)
        self._drain_credits()
        faults = self.sim.faults
        wait = self.wait or core.spin_wait
        while not self.flow.can_send():
            if self._dead:
                self._blackhole(nbytes)
                return
            stall_start = self.sim.now
            if self._credit_ticket is None:
                self._credit_ticket = self.qp.recv()
            if faults is None:
                credit_msg = yield from wait(self._credit_ticket)
            else:
                index, credit_msg = yield from wait(
                    FirstOf([self._credit_ticket, Timeout(faults.credit_timeout_s)])
                )
                if index != 0:
                    self.stats.credit_timeouts += 1
                    faults.note_credit_timeout(self.name)
                    if faults.is_crashed_node(self.qp.remote.index):
                        self.mark_dead()
                        self._blackhole(nbytes)
                        return
                    continue
            self._credit_ticket = None
            if credit_msg[0] is _POISON_CREDIT:
                self._blackhole(nbytes)
                return
            self._apply_credit(credit_msg[0])
            self.stats.record_stall(self.sim.now - stall_start)
        yield from self._post(core, payload, nbytes, wait)

    def _blackhole(self, nbytes: int) -> None:
        self.stats.blackholed_sends += 1
        self.sim.faults.note_blackholed_send(self.name)
        trace(self.sim, "channel", f"{self.name} send to dead peer dropped", bytes=nbytes)

    def _post(
        self, core: Core, payload: Any, nbytes: int, wait: Callable
    ) -> Generator[Any, Any, None]:
        """Post one buffer as a WRITE into the next ring slot.

        Without a fault plan the WRITE is posted once.  Under one it is
        ACK-tracked with bounded-backoff retransmission: one ACK signal
        and one first-delivery-wins transfer record are shared across
        all attempts of a buffer, so a retransmission of a merely-slow
        (not lost) WRITE is discarded at the receiver, and a late ACK
        from an earlier attempt satisfies a later wait.
        """
        self.flow.spend()
        slot = self._next_slot
        self._next_slot += 1
        # Sanitize once per logical buffer, before any retry: a
        # retransmission legitimately targets a possibly-delivered slot
        # (the receiver's first-delivery-wins record discards it).
        san = self.sim.sanitize
        if san is not None:
            san.check_buffer_write(self.name, self.queue, slot)
            san.note_send(id(self.stats), self.name, self.flow.initial)
        stamped = (self.sim.now, payload)
        faults = self.sim.faults
        ack: Optional[Signal] = None
        xfer_state: Optional[dict[str, bool]] = None
        if faults is not None:
            ack = Signal(name=f"{self.name}.ack.{slot}")
            xfer_state = {"delivered": False}
            rto = faults.rto_s
        attempt = 0
        while True:
            yield from self.qp.post_write(
                core,
                stamped,
                nbytes + FOOTER_BYTES,
                self.queue.region,
                self.queue.offset_of(slot),
                signaled=self.signal_writes,
                ack_signal=ack,
                xfer_state=xfer_state,
            )
            if self.signal_writes:
                yield from self.qp.poll_cq(core)
            if faults is None:
                break
            index, _value = yield from wait(FirstOf([ack, Timeout(rto)]))
            if index == 0:
                break
            if faults.is_crashed_node(self.qp.remote.index):
                self.mark_dead()
                self._blackhole(nbytes)
                return
            if faults.is_crashed_node(self.qp.local.index):
                # The *sender's* host died mid-send (its worker is only
                # cooperatively halted): a dead host does not retry.
                self.mark_dead()
                self._blackhole(nbytes)
                return
            if faults.link_blocked(self.qp.local.index, self.qp.remote.index):
                # A partition, not a lost WRITE: the transport holds the
                # transfer until the path heals.  Waiting out the cut
                # must not consume retry budget — a long partition is
                # survivable, a truly unreachable peer is not.
                heal = faults.heal_wait(
                    self.qp.local.index, self.qp.remote.index
                )
                trace(
                    self.sim, "channel",
                    f"{self.name} holding for partition heal",
                    slot=slot % self.queue.credits,
                )
                yield from wait(heal)
                rto = faults.rto_s
                continue
            attempt += 1
            if attempt >= faults.max_retries:
                raise FaultError(
                    f"{self.name}: transfer for slot {slot} lost "
                    f"{faults.max_retries} times; peer unreachable"
                )
            core.counters.count_retransmit(nbytes)
            trace(
                self.sim, "channel", f"{self.name} retransmit",
                slot=slot % self.queue.credits, attempt=attempt, rto_s=rto,
            )
            rto *= 2
        self.stats.record_send(nbytes)
        trace(self.sim, "channel", f"{self.name} send", slot=slot % self.queue.credits, bytes=nbytes)

    def close(self, core: Core) -> Generator[Any, Any, None]:
        """Send the end-of-stream sentinel (consumes a credit like data).

        Idempotent: a second close is a no-op, so EOS is delivered at
        most once.
        """
        if self._closed:
            return
        if self._dead:
            self._closed = True
            return
        yield from self.send(core, CHANNEL_EOS, 0)
        self._closed = True

    def _drain_credits(self) -> None:
        while True:
            ok, credit_payload, _nbytes = self.qp.try_recv()
            if not ok:
                return
            if credit_payload is _POISON_CREDIT:
                continue
            self._apply_credit(credit_payload)

    def _apply_credit(self, credit_payload: Any) -> None:
        if not isinstance(credit_payload, int) or credit_payload <= 0:
            raise ProtocolError(
                f"{self.name}: malformed credit message {credit_payload!r}"
            )
        san = self.sim.sanitize
        if san is not None:
            san.note_credit_apply(
                id(self.stats), self.name, credit_payload, self.flow.initial
            )
        self.flow.refill(credit_payload)


class ConsumerEndpoint:
    """The receiving side of a channel."""

    def __init__(
        self,
        sim: Simulator,
        qp: QueuePair,
        queue: CircularQueue,
        stats: ChannelStats,
        name: str,
        wait: Wait = None,
    ):
        self.sim = sim
        self.qp = qp
        self.queue = queue
        self.stats = stats
        self.name = name
        self.wait = wait
        self._arrivals: Store = sim.store(name=f"{name}.arrivals")
        self._next_slot = 0
        self._release_slot = 0
        self._eos_seen = False
        # Fault-mode state: credit starvation withholds returns until
        # flushed; ``force_reset`` interrupts a parked receiver.
        self.withhold_credits = False
        self._withheld = 0
        # The region's store hook reaches the arrivals store, not this
        # endpoint: the endpoint holds the region (a cycle otherwise).
        queue.region.on_store = self._arrivals.put

    def notify_on_arrival(self, store: Store, token: Any) -> None:
        """Also put ``token`` into ``store`` on every arrival.

        The fan-in hook that lets a worker sleep on many channels at once;
        the token (not the endpoint) keeps the store free of cycles.
        """
        arrivals = self._arrivals

        def on_store(offset: int) -> None:
            arrivals.put(offset)
            store.put(token)

        self.queue.region.on_store = on_store

    @property
    def eos(self) -> bool:
        """Whether end-of-stream has been received."""
        return self._eos_seen

    @property
    def pending(self) -> int:
        """Buffers delivered but not yet received by the worker."""
        return len(self._arrivals)

    def try_recv(self, core: Core) -> tuple[bool, Any, int]:
        """Non-blocking footer poll: ``(ok, payload, nbytes)``.

        Charges one poll's worth of CPU to ``core`` (counters only — a
        single cached load is far below the simulation's time quantum).
        """
        core.counters.charge(POLL_COST, 1.0)
        ok, offset = self._arrivals.try_get()
        if not ok:
            return False, None, 0
        if offset is _RESET_TOKEN:
            raise ChannelResetError(f"{self.name}: channel was reset")
        return self._take()

    def recv(self, core: Core) -> Generator[Any, Any, tuple[Any, int]]:
        """Blocking receive: waits until a buffer lands."""
        arrival = yield from (self.wait or core.spin_wait)(self._arrivals.get())
        if arrival is _RESET_TOKEN:
            raise ChannelResetError(f"{self.name}: channel was reset")
        ok, payload, nbytes = self._take()
        assert ok
        return payload, nbytes

    def _take(self) -> tuple[bool, Any, int]:
        slot = self._next_slot
        if not self.queue.poll_slot(slot):
            raise ProtocolError(
                f"{self.name}: arrival signal for slot {slot} but footer unset "
                "(FIFO order violated)"
            )
        stamped, wire_bytes = self.queue.read_slot(slot)
        send_time, payload = stamped
        self._next_slot += 1
        self.stats.record_latency(self.sim.now - send_time)
        trace(self.sim, "channel", f"{self.name} recv", slot=slot % self.queue.credits)
        if payload is CHANNEL_EOS:
            self._eos_seen = True
        return True, payload, max(0, wire_bytes - FOOTER_BYTES)

    def release(self, core: Core) -> Generator[Any, Any, None]:
        """Mark the oldest unreleased buffer writable and return a credit."""
        if self._release_slot >= self._next_slot:
            raise ProtocolError(f"{self.name}: release without a received buffer")
        self.queue.release_slot(self._release_slot)
        self._release_slot += 1
        if self.withhold_credits:
            self._withheld += 1
            return
        san = self.sim.sanitize
        if san is not None:
            san.note_credit_return(id(self.stats), self.name, 1, self.queue.credits)
        yield from self.qp.post_send(core, 1, CREDIT_MSG_BYTES)

    def flush_withheld(self, core: Core) -> Generator[Any, Any, None]:
        """Return every credit held back during a starvation window."""
        count, self._withheld = self._withheld, 0
        if count:
            san = self.sim.sanitize
            if san is not None:
                san.note_credit_return(
                    id(self.stats), self.name, count, self.queue.credits
                )
            yield from self.qp.post_send(core, count, CREDIT_MSG_BYTES)

    def force_reset(self) -> None:
        """Interrupt the receiver: its next (or current, if parked) receive
        raises :class:`ChannelResetError`.  Queued arrivals ahead of the
        token are still delivered in FIFO order first."""
        self._arrivals.put(_RESET_TOKEN)


class RdmaChannel:
    """Factory tying together region, queue pair, and the two endpoints."""

    def __init__(self, producer: ProducerEndpoint, consumer: ConsumerEndpoint, stats: ChannelStats):
        self.producer = producer
        self.consumer = consumer
        self.stats = stats

    @classmethod
    def create(
        cls,
        cm: ConnectionManager,
        producer_node: int,
        consumer_node: int,
        credits: int = DEFAULT_CREDITS,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        name: str = "",
        signal_writes: bool = False,
        wait: Wait = None,
    ) -> "RdmaChannel":
        """Run the setup phase of the protocol (Sec. 6.2) between two nodes."""
        label = name or f"ch:{producer_node}->{consumer_node}"
        region = cm.register_region(
            consumer_node, credits * buffer_bytes, name=f"{label}.ring"
        )
        qp_prod, qp_cons = cm.connect(producer_node, consumer_node, name=label)
        queue = CircularQueue(region, credits, buffer_bytes)
        stats = ChannelStats()
        sim = cm.cluster.sim
        producer = ProducerEndpoint(
            sim, qp_prod, queue, FlowControl(credits), stats, f"{label}.prod",
            signal_writes=signal_writes, wait=wait,
        )
        consumer = ConsumerEndpoint(sim, qp_cons, queue, stats, f"{label}.cons", wait=wait)
        return cls(producer, consumer, stats)


class LocalChannel:
    """A same-node channel with identical semantics but memcpy timing.

    Used for worker-to-worker exchange inside one node (the software
    queues of queue-based partitioning).  A send copies the payload
    through DRAM; a release returns the credit instantly.
    """

    def __init__(self, sim: Simulator, node: "Any", credits: int = DEFAULT_CREDITS,
                 buffer_bytes: int = DEFAULT_BUFFER_BYTES, name: str = "local"):
        self.sim = sim
        self.node = node
        self.buffer_bytes = buffer_bytes
        self.stats = ChannelStats()
        self.name = name
        self._flow = FlowControl(credits)
        self._arrivals: Store = sim.store(name=f"{name}.arrivals")
        self._credit_returns: Store = sim.store(name=f"{name}.credits")
        self._eos_seen = False
        self._closed = False
        self._dead = False
        self._notify: Optional[tuple[Store, Any]] = None

    # The channel is both of its endpoints (a property, not an attribute
    # holding itself: that would be a reference cycle).
    producer = consumer = property(lambda self: self)

    def notify_on_arrival(self, store: Store, token: Any) -> None:
        """Also put ``token`` into ``store`` on every arrival (fan-in)."""
        self._notify = (store, token)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def dead(self) -> bool:
        return self._dead

    def mark_dead(self) -> None:
        """Administratively kill the channel (its owner was fenced).

        Future sends are silently dropped, and a fake credit wakes any
        sender parked on the credit wait so its (halted) body can exit.
        """
        self._dead = True
        self._credit_returns.put(1)

    @property
    def eos(self) -> bool:
        return self._eos_seen

    @property
    def pending(self) -> int:
        return len(self._arrivals)

    def send(self, core: Core, payload: Any, nbytes: int) -> Generator[Any, Any, None]:
        """Copy one buffer to the consumer side, honouring credits."""
        if self._dead:
            return
        if self._closed:
            raise ProtocolError(f"{self.name}: send after EOS")
        if nbytes > self.buffer_bytes:
            raise ProtocolError(
                f"{self.name}: payload {nbytes} exceeds buffer {self.buffer_bytes}"
            )
        while not self._flow.can_send():
            stall_start = self.sim.now
            yield from core.spin_wait(self._credit_returns.get())
            if self._dead:
                return
            self._flow.refill(1)
            self.stats.record_stall(self.sim.now - stall_start)
        self._flow.spend()
        # Price the copy: read + write of nbytes through the cache/DRAM.
        copy_cost = self.node.cost_model.cache.streaming_cost(2 * max(nbytes, 1))
        yield from core.execute(copy_cost, 1.0)
        self._arrivals.put((self.sim.now, payload, nbytes))
        if self._notify is not None:
            store, token = self._notify
            store.put(token)
        self.stats.record_send(nbytes)

    def close(self, core: Core) -> Generator[Any, Any, None]:
        if self._dead:
            return
        yield from self.send(core, CHANNEL_EOS, 0)
        self._closed = True

    def try_recv(self, core: Core) -> tuple[bool, Any, int]:
        core.counters.charge(POLL_COST, 1.0)
        ok, item = self._arrivals.try_get()
        if not ok:
            return False, None, 0
        return self._take(item)

    def recv(self, core: Core) -> Generator[Any, Any, tuple[Any, int]]:
        item = yield from core.spin_wait(self._arrivals.get())
        _ok, payload, nbytes = self._take(item)
        return payload, nbytes

    def _take(self, item: tuple[float, Any, int]) -> tuple[bool, Any, int]:
        send_time, payload, nbytes = item
        self.stats.record_latency(self.sim.now - send_time)
        if payload is CHANNEL_EOS:
            self._eos_seen = True
        return True, payload, nbytes

    def release(self, core: Core) -> Generator[Any, Any, None]:
        """Return one credit to the producer (no network involved)."""
        core.counters.charge(POLL_COST, 1.0)
        self._credit_returns.put(1)
        return
        yield  # pragma: no cover - makes this a generator like its RDMA twin
