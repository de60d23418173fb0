"""Simulated cluster hardware: cores, DRAM channels, NICs, links, switch.

The contention model is intentionally simple and deterministic:

* each **core** runs one engine worker (the paper pins threads to cores);
* each node's **DRAM** is a shared bandwidth pipe — when the aggregate
  cache-miss traffic of all workers exceeds the socket's sustainable
  bandwidth, batches queue and the node becomes memory-bandwidth bound
  (this is what caps Slash, Sec. 8.3.4);
* each node's **NIC** has one transmit and one receive bandwidth pipe; a
  message serialises on the sender's TX pipe, crosses the switch after a
  propagation delay, then serialises on the receiver's RX pipe — so incast
  (many senders, one receiver, as in hash re-partitioning) congests the
  receive side, exactly the effect that hurts RDMA UpPar under skew.

Bandwidth pipes are FIFO with O(1) bookkeeping: a transfer occupies the
pipe from ``max(now, pipe_free_at)`` for ``overhead + bytes/bandwidth``,
so waiting for it is one :class:`Timeout` to an instant known up front.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, Optional

from repro.common.config import ClusterConfig, NodeConfig
from repro.common.errors import ConfigError, SimulationError
from repro.simnet.cost_model import CostModel, OpCost
from repro.simnet.counters import HwCounters
from repro.simnet.kernel import Signal, Simulator, Timeout


class BandwidthPipe:
    """A FIFO resource that serialises byte transfers at a fixed rate."""

    def __init__(self, sim: Simulator, bytes_per_s: float, name: str = ""):
        if bytes_per_s <= 0:
            raise ConfigError(f"pipe {name!r}: bandwidth must be positive")
        self.sim = sim
        self.bytes_per_s = bytes_per_s
        self.nominal_bytes_per_s = bytes_per_s
        self.name = name
        self._free_at = 0.0
        self.total_bytes = 0.0

    def degrade(self, factor: float) -> None:
        """Scale the pipe's rate to ``factor`` of nominal (NIC flap / link
        degradation fault).  Transfers already enqueued keep their old
        completion times; only future transfers see the new rate."""
        if factor <= 0:
            raise ConfigError(f"pipe {self.name!r}: degrade factor must be positive")
        self.bytes_per_s = self.nominal_bytes_per_s * factor

    def restore(self) -> None:
        """Undo :meth:`degrade`: return to the nominal rate."""
        self.bytes_per_s = self.nominal_bytes_per_s

    def reserve(self, nbytes: float, overhead_s: float = 0.0) -> float:
        """Occupy the pipe for one transfer; return the instant it completes."""
        if not (nbytes >= 0 and overhead_s >= 0):  # NaN compares false
            raise SimulationError(f"pipe {self.name!r}: bad transfer {nbytes} B + {overhead_s} s")
        start = max(self.sim.now, self._free_at)
        finish = start + overhead_s + nbytes / self.bytes_per_s
        self._free_at = finish
        self.total_bytes += nbytes
        return finish

    def transfer(self, nbytes: float, overhead_s: float = 0.0) -> Timeout:
        """Enqueue a transfer; waiting on it resumes with ``nbytes`` on completion."""
        return Timeout(self.reserve(nbytes, overhead_s) - self.sim.now, nbytes)


class Core:
    """One pinned hardware thread: executes priced operations, spins on waits.

    A core holds what it reads of its node (the clock, the cost model,
    the DRAM pipe), not the node: children hold no reference to their
    parents, so a rack has no reference cycle.
    """

    def __init__(self, node: "Node", index: int):
        self.node_index = node.index
        self.index = index
        self.sim = node.sim
        self.cost_model = node.cost_model
        self.dram = node.dram
        self.frequency_hz = node.config.cpu.frequency_hz
        self.counters = HwCounters()

    def execute(self, cost: OpCost, count: float = 1.0) -> Generator[Any, Any, None]:
        """Charge and spend the time for ``count`` instances of ``cost``.

        The CPU time and the operation's DRAM traffic advance concurrently;
        the step finishes when both are done, so a node whose workers
        collectively overdraw the memory pipe slows down: one wait to
        ``now + max(cpu_s, dram_s)``, the later of the two (rounding is monotone).
        """
        self.counters.charge(cost, count)
        cpu_s = self.cost_model.seconds(cost, count)
        self.counters.busy_seconds += cpu_s
        mem_bytes = cost.mem_bytes * count
        if mem_bytes > 0:
            dram_s = self.dram.reserve(mem_bytes) - self.sim.now
            yield Timeout(max(cpu_s, dram_s))
        else:
            yield Timeout(cpu_s)

    def spin_wait(self, waitable: Any) -> Generator[Any, Any, Any]:
        """Wait for ``waitable`` while busy-polling (``pause`` spinning).

        The waited wall time is charged as core-bound cycles, which is how
        the paper's 'receiver waits on sender / sender waits on network'
        effects show up in the top-down breakdowns (Sec. 8.3.3).
        """
        started = self.sim.now
        value = yield waitable
        waited = self.sim.now - started
        if waited > 0:
            self.counters.charge_wait(waited * self.frequency_hz)
        return value


class _HealWait:
    """A message held at a cut, resumed when the path heals.

    The cut's heal signal is held by the cluster and the message's chain
    reaches the cluster back, so the wait is tracked by the simulator like
    a parked process: closing the run drops the chain, and the rack has no
    cycle left.
    """

    __slots__ = ("sim", "resume")

    def __init__(self, sim: Simulator, resume: Callable[[], None]):
        self.sim = sim
        self.resume: Optional[Callable[[], None]] = resume
        sim.track(self)

    def __call__(self, _value: Any, _exc: Optional[BaseException]) -> None:
        self.sim.untrack(self)
        self.resume()

    def close(self) -> None:
        self.resume = None


class Link:
    """A unidirectional node-to-node path through the switch."""

    def __init__(self, cluster: "Cluster", src: "Node", dst: "Node"):
        self.cluster = cluster
        self.src = src
        self.dst = dst

    # One message is a chain of kernel callbacks, one entry per hop: the
    # zero-delay reachability hop (behind every event already queued for
    # the posting instant), any heal waits, TX, flight, RX.  Each delay is
    # ``finish - now`` scheduled at ``now + delay``, as a process's
    # Timeout would be, so a chain fires at exactly the (when, seq) of the
    # process steps it replaced.
    def post(
        self,
        nbytes: float,
        overhead_s: Optional[float],
        deliver: Callable[..., None],
        *args: Any,
    ) -> None:
        """Start moving ``nbytes`` from src to dst; ``deliver(*args)`` runs
        once the last byte has left the receiver's RX pipe.

        ``overhead_s`` overrides the per-message NIC processing time
        (callers model WQE-cache pressure by inflating it); None is the
        NIC's own.  Reliable semantics across partitions: while the path
        is cut the transfer holds *before* occupying the TX pipe
        (modelling transport-level retransmission) and proceeds once the
        partition heals, so no committed byte is ever lost to a cut.
        """
        self.cluster.sim.call_in(0.0, self._depart, nbytes, overhead_s, deliver, args)

    def _depart(self, nbytes, overhead_s, deliver, args) -> None:
        cluster = self.cluster
        src, dst = self.src, self.dst
        if not cluster.can_reach(src.index, dst.index):
            held = _HealWait(cluster.sim, partial(self._depart, nbytes, overhead_s, deliver, args))
            cluster.heal_wait(src.index, dst.index)._subscribe(cluster.sim, held)
            return
        nic = src.config.nic
        overhead = nic.nic_processing_s if overhead_s is None else overhead_s
        sim = cluster.sim
        finish = src.nic_tx.reserve(nbytes, overhead)
        sim.call_in(float(finish - sim.now), self._fly, nbytes, deliver, args)

    def _fly(self, nbytes, deliver, args) -> None:
        cluster = self.cluster
        latency = self.src.config.nic.propagation_latency_s + cluster.config.switch_latency_s
        cluster.sim.call_in(
            latency + cluster.extra_latency(self.src.index, self.dst.index),
            self._receive, nbytes, deliver, args,
        )

    def _receive(self, nbytes, deliver, args) -> None:
        sim = self.cluster.sim
        sim.call_in(float(self.dst.nic_rx.reserve(nbytes) - sim.now), deliver, *args)

    def send(self, nbytes: float, overhead_s: Optional[float] = None) -> Generator[Any, Any, float]:
        """:meth:`post` as one wait; returns ``nbytes`` on delivery.

        Driven with ``yield from`` by a plain process, never a
        CoroScheduler task (it re-checks halt/pause after every wait).
        """
        delivered = Signal()
        self.post(nbytes, overhead_s, delivered.fire, nbytes)
        return (yield delivered)

    def send_datagram(self, nbytes: float) -> Generator[Any, Any, bool]:
        """Lossy best-effort control send (heartbeats, fence votes).

        Unlike :meth:`send`, a datagram posted into a cut path is simply
        dropped — it returns ``False`` and nothing is delivered.
        This is what lets the failure detector *see* a partition while
        the data plane rides it out.

        Datagrams model the management sidecar of a real deployment:
        they share the physical path (and therefore die with it), but at
        tens of bytes they are charged propagation + switch latency
        only, not data-pipe occupancy — heartbeat cadences are orders of
        magnitude below the per-message processing budget of the
        bandwidth pipes, and letting them queue there would let the
        control plane starve the data plane it is supposed to monitor.
        """
        yield Timeout(0.0)
        cluster = self.cluster
        src, dst = self.src.index, self.dst.index
        if not cluster.can_reach(src, dst):
            return False  # posted straight into the cut
        yield Timeout(self.src.config.nic.propagation_latency_s + cluster.config.switch_latency_s)
        if not cluster.can_reach(src, dst):
            return False  # the cut landed while the datagram was in flight
        return True


class Node:
    """One server: cores, a DRAM pipe, and a NIC with TX/RX pipes."""

    def __init__(self, sim: Simulator, index: int, config: NodeConfig):
        self.index = index
        self.config = config
        self.sim = sim
        self.cost_model = CostModel(config.cpu)
        self.dram = BandwidthPipe(
            self.sim, config.cpu.dram_bandwidth_bytes_per_s, name=f"node{index}.dram"
        )
        self.nic_tx = BandwidthPipe(
            self.sim, config.nic.bandwidth_bytes_per_s, name=f"node{index}.nic_tx"
        )
        self.nic_rx = BandwidthPipe(
            self.sim, config.nic.bandwidth_bytes_per_s, name=f"node{index}.nic_rx"
        )
        self.cores = [Core(self, i) for i in range(config.cpu.cores)]

    def core(self, index: int) -> Core:
        """Return core ``index`` on this node."""
        return self.cores[index]

    def counters(self) -> HwCounters:
        """Aggregate counters over all cores on this node."""
        total = HwCounters()
        for core in self.cores:
            total.merge(core.counters)
        return total

    def __repr__(self) -> str:
        return f"Node({self.index}, cores={len(self.cores)})"


class Cluster:
    """The simulated rack: nodes behind one non-blocking switch."""

    def __init__(self, sim: Simulator, config: Optional[ClusterConfig] = None):
        self.sim = sim
        self.config = config or ClusterConfig()
        self.nodes = [Node(sim, i, self.config.node) for i in range(self.config.nodes)]
        # Partition state: ordered (src, dst) node pairs whose path is
        # currently cut.  Symmetric partitions cut both directions,
        # asymmetric ones a single direction.
        self._blocked: set[tuple[int, int]] = set()
        self._heal_signals: dict[tuple[int, int], Signal] = {}
        # Jitter state: extra per-message latency (seconds) on ordered
        # (src, dst) data-plane paths.  Datagrams are deliberately NOT
        # jittered — they model the management sidecar, and a gray
        # failure of the data plane should not destabilise the failure
        # detector (that is what makes it *gray*).
        self._extra_latency: dict[tuple[int, int], float] = {}

    # -- jitter state ------------------------------------------------------
    def set_extra_latency(self, src: int, dst: int, extra_s: float) -> None:
        """Add ``extra_s`` of one-way latency to the (src → dst) path."""
        if src == dst:
            raise ConfigError(f"a node has no link to itself: {src}")
        if extra_s < 0:
            raise ConfigError(f"extra latency must be non-negative, got {extra_s}")
        self._extra_latency[(src, dst)] = extra_s

    def clear_extra_latency(self, src: int, dst: int) -> None:
        """Remove any jitter from the (src → dst) path."""
        self._extra_latency.pop((src, dst), None)

    def extra_latency(self, src: int, dst: int) -> float:
        """Current jitter (seconds) on the (src → dst) path; 0 if none."""
        if not self._extra_latency:
            return 0.0
        return self._extra_latency.get((src, dst), 0.0)

    # -- partition state ---------------------------------------------------
    def can_reach(self, src: int, dst: int) -> bool:
        """Whether the (src → dst) path is currently uncut."""
        return (src, dst) not in self._blocked

    def block(self, src: int, dst: int) -> None:
        """Cut the (src → dst) path (network partition fault)."""
        if src == dst:
            raise ConfigError(f"cannot cut a node's path to itself: {src}")
        self._blocked.add((src, dst))

    def unblock(self, src: int, dst: int) -> None:
        """Heal the (src → dst) path and wake every held transfer."""
        self._blocked.discard((src, dst))
        signal = self._heal_signals.pop((src, dst), None)
        if signal is not None:
            signal.fire(True)

    def heal_wait(self, src: int, dst: int) -> Signal:
        """The signal that fires when the (src → dst) path next heals.

        Callers must fetch it in the same simulation step as their
        ``can_reach`` check — :meth:`unblock` pops and fires the
        registered signal, so a signal fetched while blocked is always
        the one the heal fires.
        """
        pair = (src, dst)
        signal = self._heal_signals.get(pair)
        if signal is None:
            signal = Signal(name=f"heal:{src}->{dst}")
            if pair not in self._blocked:
                signal.fire(True)  # already reachable: resume immediately
            else:
                self._heal_signals[pair] = signal
        return signal

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, index: int) -> Node:
        """Return node ``index``."""
        return self.nodes[index]

    def link(self, src: int, dst: int) -> Link:
        """Return the (src → dst) path; src and dst must differ."""
        if src == dst:
            raise ConfigError(f"link endpoints must differ, got {src}->{dst}")
        return Link(self, self.nodes[src], self.nodes[dst])

    def counters(self) -> HwCounters:
        """Aggregate counters across the whole cluster."""
        total = HwCounters()
        for node in self.nodes:
            total.merge(node.counters())
        return total
