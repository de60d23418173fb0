"""Regression tests for the kernel's dispatch loop.

Covers the behaviours no scheduling change may alter:

* ``run_until_process`` surfaces *unobserved* failures of background
  processes exactly like ``run`` does (the historical bug: it silently
  swallowed them);
* the zero-delay ready deque fires events in exactly the ``(when, seq)``
  order a pure heap would have produced;
* every way of driving the simulator — ``run`` or ``run_until_process``,
  with or without a horizon, sanitizer attached or not — dispatches one
  script identically;
* one kernel entry per simulated wait (``Core.execute`` as one timeout,
  pipe transfers as timeouts, ``Link`` sends driven with ``yield from``)
  dispatches exactly like the multi-entry mechanism it replaced;
* a work request (an RDMA WRITE or SEND, an IPoIB segment) as a chain of
  kernel callbacks dispatches exactly like the child process it replaced.
"""

import numpy as np
import pytest

from repro.baselines import ipoib
from repro.baselines.ipoib import IpoibChannel
from repro.common.config import ClusterConfig, CpuConfig, NicConfig, NodeConfig
from repro.common.errors import ProtocolError, SimulationError
from repro.rdma import verbs
from repro.rdma.region import MemoryRegion
from repro.rdma.verbs import Completion, QueuePair, WorkKind
from repro.sanitizer.invariants import Sanitizer
from repro.simnet.cluster import BandwidthPipe, Cluster, Link
from repro.simnet.cost_model import OpCost
from repro.simnet.kernel import AllOf, FirstOf, Signal, Simulator, Timeout


class TestRunUntilProcessUnobserved:
    def test_background_failure_is_raised(self):
        """A process nobody waits on must not fail silently."""
        sim = Simulator()

        def background():
            yield Timeout(1e-3)
            raise RuntimeError("background boom")

        def awaited():
            yield Timeout(1.0)
            return "done"

        sim.process(background(), name="bg")
        proc = sim.process(awaited(), name="main")
        with pytest.raises(RuntimeError, match="background boom"):
            sim.run_until_process(proc)

    def test_awaited_process_failure_surfaces_through_value(self):
        """The awaited process's own failure is observed, not 'unobserved'."""
        sim = Simulator()

        def failing():
            yield Timeout(1e-3)
            raise ValueError("awaited boom")

        proc = sim.process(failing(), name="failing")
        with pytest.raises(ValueError, match="awaited boom"):
            sim.run_until_process(proc)

    def test_run_and_run_until_process_agree(self):
        """Both drivers raise the same background failure."""

        def background():
            yield Timeout(1e-3)
            raise RuntimeError("boom either way")

        def awaited():
            yield Timeout(1.0)

        sim = Simulator()
        sim.process(background(), name="bg")
        with pytest.raises(RuntimeError, match="boom either way"):
            sim.run()

        sim = Simulator()
        sim.process(background(), name="bg")
        proc = sim.process(awaited(), name="main")
        with pytest.raises(RuntimeError, match="boom either way"):
            sim.run_until_process(proc)

    def test_successful_run_until_process_returns_value(self):
        sim = Simulator()

        def body():
            yield Timeout(0.5)
            return 42

        proc = sim.process(body(), name="ok")
        assert sim.run_until_process(proc) == 42


class TestReadyQueueOrdering:
    def test_zero_delay_does_not_jump_same_time_heap_events(self):
        """A zero-delay event scheduled at time t must still fire after
        heap events at time t that carry smaller sequence numbers."""
        sim = Simulator()
        order = []

        def first_at_one():
            order.append("heap-seq1")
            # Scheduled at t=1.0 with a later seq than the pending
            # heap-seq2 entry: must fire after it.
            sim.call_in(0.0, lambda: order.append("ready-seq3"))

        sim.call_in(1.0, first_at_one)
        sim.call_in(1.0, lambda: order.append("heap-seq2"))
        sim.run()
        assert order == ["heap-seq1", "heap-seq2", "ready-seq3"]

    def test_zero_delay_events_fire_fifo(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.call_in(0.0, order.append, i)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_zero_delay_fires_before_later_heap_events(self):
        sim = Simulator()
        order = []
        sim.call_in(1e-9, order.append, "delayed")
        sim.call_in(0.0, order.append, "immediate")
        sim.run()
        assert order == ["immediate", "delayed"]

    def test_until_respects_ready_queue(self):
        """run(until) must stop before ready events scheduled past it."""
        sim = Simulator()
        fired = []

        def late():
            fired.append("late")
            sim.call_in(0.0, fired.append, "later-still")

        sim.call_in(2.0, late)
        assert sim.run(until=1.0) == 1.0
        assert fired == []
        sim.run()
        assert fired == ["late", "later-still"]

    def test_scheduled_events_counts_both_queues(self):
        sim = Simulator()
        sim.call_in(0.0, lambda: None)
        sim.call_in(1.0, lambda: None)
        assert sim.scheduled_events == 2
        sim.run()
        assert sim.scheduled_events == 2


class TestRunUntilProcessDeadlock:
    def test_deadlock_detected_with_empty_queues(self):
        sim = Simulator()

        def waits_forever():
            yield sim.signal("never")

        proc = sim.process(waits_forever(), name="stuck")
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_process(proc)


FAR = 1e9

DRIVERS = {
    "run": lambda sim, proc: sim.run(),
    "run-until-far": lambda sim, proc: sim.run(until=FAR),
    "run-until-process": lambda sim, proc: sim.run_until_process(proc),
    "run-until-process-limit": lambda sim, proc: sim.run_until_process(proc, limit=FAR),
}


def _drive_script(driver: str, sanitized: bool) -> dict:
    """Replay one seeded script — tie-heavy timers, zero-delay wake-ups, a
    FirstOf race, a process that fails unobserved — and report what an
    observer can see: fire order, counters, the surfaced exception."""
    rng = np.random.default_rng(7)
    sim = Simulator()
    if sanitized:
        sim.sanitize = Sanitizer(sim)
    order = []

    def timer_fired(label):
        order.append(("timer", label, sim.now))
        if label % 3 == 0:
            sim.call_in(0.0, order.append, ("wake-up", label, sim.now))

    for label, delay in enumerate(rng.choice((0.25, 0.5, 0.75, 1.0, 2.5), size=40)):
        sim.call_in(float(delay), timer_fired, label)

    def racer():
        ack = Signal(name="ack")
        sim.call_in(0.5, ack.fire, "acked")
        won = yield FirstOf([ack, Timeout(5.0)])
        order.append(("race", won, sim.now))
        yield Timeout(0.0)
        order.append(("racer-resumed", sim.now))

    def doomed():
        yield Timeout(0.75)
        order.append(("doomed-raises", sim.now))
        raise RuntimeError("unobserved boom")

    def main():
        yield Timeout(3.0)
        order.append(("main-done", sim.now))
        return "done"

    sim.process(racer(), name="racer")
    sim.process(doomed(), name="doomed")
    proc = sim.process(main(), name="main")

    drive = DRIVERS[driver]
    with pytest.raises(RuntimeError) as surfaced:
        drive(sim, proc)
    at_failure = (list(order), sim.now, sim.scheduled_events)
    drive(sim, proc)  # the failure stopped the loop; the same driver resumes it
    assert proc.value == "done"
    return {
        "at_failure": at_failure,
        "surfaced": str(surfaced.value),
        "order": order,
        "now": sim.now,
        "scheduled_events": sim.scheduled_events,
        "cancelled_events": sim.cancelled_events,
        "pending_timers": sim.pending_timers,
    }


@pytest.mark.parametrize("sanitized", [False, True], ids=["detached", "sanitized"])
@pytest.mark.parametrize("driver", DRIVERS)
def test_every_driver_dispatches_identically(driver, sanitized):
    baseline = _drive_script("run", False)
    assert baseline["surfaced"] == "unobserved boom"
    assert baseline["cancelled_events"] == 1  # the race's losing 5 s timer
    assert _drive_script(driver, sanitized) == baseline


# -- one kernel entry per simulated wait ---------------------------------------
#
# A test-local copy of the multi-entry mechanism: a pipe transfer is a named
# Signal fired by a callback entry, a priced step waits on
# AllOf([Timeout(cpu_s), dram signal]), and a link message is a spawned child
# Process the caller waits on.  The script below must dispatch identically
# through it and through the one-entry path.


class _SignalPipe(BandwidthPipe):
    """A pipe whose transfer is a Signal fired by a callback entry."""

    def transfer(self, nbytes, overhead_s=0.0):
        finish = self.reserve(nbytes, overhead_s)
        done = Signal(name=f"{self.name}.xfer")
        self.sim.call_in(finish - self.sim.now, done.fire, nbytes)
        return done


def _allof_execute(core, cost, count):
    core.counters.charge(cost, count)
    cpu_s = core.cost_model.seconds(cost, count)
    core.counters.busy_seconds += cpu_s
    mem_bytes = cost.mem_bytes * count
    if mem_bytes > 0:
        dram_done = core.dram.transfer(mem_bytes)
        yield AllOf([Timeout(cpu_s), dram_done])
    else:
        yield Timeout(cpu_s)


def _spawned_send(link, nbytes, overhead_s=None):
    def body():
        cluster = link.cluster
        while not cluster.can_reach(link.src.index, link.dst.index):
            yield cluster.heal_wait(link.src.index, link.dst.index)
        nic = link.src.config.nic
        overhead = nic.nic_processing_s if overhead_s is None else overhead_s
        yield link.src.nic_tx.transfer(nbytes, overhead_s=overhead)
        yield Timeout(
            nic.propagation_latency_s
            + cluster.config.switch_latency_s
            + cluster.extra_latency(link.src.index, link.dst.index)
        )
        yield link.dst.nic_rx.transfer(nbytes)
        return nbytes

    return (yield link.cluster.sim.process(body(), name="xfer"))


def _spawned_datagram(link, nbytes):
    def body():
        cluster = link.cluster
        if not cluster.can_reach(link.src.index, link.dst.index):
            return False
        yield Timeout(link.src.config.nic.propagation_latency_s + cluster.config.switch_latency_s)
        return cluster.can_reach(link.src.index, link.dst.index)

    return (yield link.cluster.sim.process(body(), name="dgram"))


# Powers of two everywhere: every sum is exact, so same-instant ties (between
# processes, and between a step's CPU and DRAM completions) are common.
_DYADIC = ClusterConfig(
    nodes=4,
    node=NodeConfig(
        cpu=CpuConfig(frequency_hz=2.0**30, dram_bandwidth_bytes_per_s=2.0**30),
        nic=NicConfig(
            bandwidth_bytes_per_s=2.0**30, wire_bandwidth_bytes_per_s=2.0**31,
            propagation_latency_s=2.0**-21, nic_processing_s=2.0**-22,
        ),
    ),
    switch_latency_s=2.0**-22,
)
_CONFIGS = {"paper": ClusterConfig(nodes=4), "dyadic": _DYADIC}

_CUT_AT = 2.0**-14       # lands at the same instant a prober posts
_SHORT_CUT = 2.0**-24    # heals before a datagram posted at the cut arrives
_SKEW = 2.0**-23         # shorter than a datagram's flight, longer than the short cut


def _run_wait_script(mechanism: str, config_name: str) -> dict:
    """Executes, many-to-one sends and datagrams across cuts; returns what an
    observer sees."""
    sim = Simulator()
    cluster = Cluster(sim, _CONFIGS[config_name])
    if mechanism == "spawned":
        for node in cluster.nodes:
            for attr in ("dram", "nic_tx", "nic_rx"):
                pipe = getattr(node, attr)
                setattr(node, attr, _SignalPipe(sim, pipe.bytes_per_s, pipe.name))
            for core in node.cores:  # a core holds its node's DRAM pipe
                core.dram = node.dram
        execute, send, datagram = _allof_execute, _spawned_send, _spawned_datagram
    else:
        execute = lambda core, cost, count: core.execute(cost, count)  # noqa: E731
        send, datagram = Link.send, Link.send_datagram
    rng = np.random.default_rng(11)
    trace = []

    def worker(name, core, steps):
        for cycles, mem_bytes, count in steps:
            yield from execute(core, OpCost(retiring=cycles, mem_bytes=mem_bytes), count)
            trace.append((sim.now, name, None))

    def sender(name, core, link, messages):
        for nbytes, overhead_s in messages:
            yield from execute(core, OpCost(retiring=150.0), 1.0)
            got = yield from send(link, nbytes, overhead_s)
            trace.append((sim.now, name, got))

    def prober(name, link, at, datagram_first):
        yield Timeout(at)
        for post_datagram in (datagram_first, not datagram_first):
            if post_datagram:
                ok = yield from datagram(link, 64)
            else:
                ok = yield from send(link, 256)
            trace.append((sim.now, name, ok))

    def cutter(src, dst, at, heal_after):
        yield Timeout(at)
        cluster.block(src, dst)
        yield Timeout(heal_after)
        cluster.unblock(src, dst)

    # Probers launch before the cutters, so a prober posting at the cut's
    # instant runs just before the cut lands: only its zero-delay hop puts
    # the reachability check after the cut.
    for name, src, at, datagram_first in (
        ("probe-at-cut", 1, _CUT_AT, True),
        ("probe-in-cut", 1, _CUT_AT + _SHORT_CUT / 2, True),
        ("probe-before-cut", 1, _CUT_AT - _SKEW, True),
        ("probe-at-long-cut", 3, 2 * _CUT_AT, True),
        ("probe-in-flight", 3, 2 * _CUT_AT - _SKEW, True),
        ("send-at-cut", 1, _CUT_AT, False),
        ("send-at-long-cut", 3, 2 * _CUT_AT, False),
    ):
        sim.process(prober(name, cluster.link(src, 2), at, datagram_first), name=name)
    sim.process(cutter(1, 2, _CUT_AT, _SHORT_CUT), name="cut-1-2")
    sim.process(cutter(3, 2, 2 * _CUT_AT, 2.0**-12), name="cut-3-2")

    node0 = cluster.node(0)
    for i in range(5):
        steps = [
            (float(rng.choice((0.0, 256.0, 1024.0, 4096.0))),
             float(rng.choice((0.0, 0.0, 1024.0, 65536.0))),
             float(rng.choice((1.0, 3.0))))
            for _ in range(12)
        ]
        sim.process(worker(f"exec{i}", node0.core(i), steps), name=f"exec{i}")
    for i, src in enumerate((0, 0, 1, 3)):
        messages = [
            (int(rng.choice((512, 4096, 65536))),
             None if rng.random() < 0.5 else 2.0**-21)
            for _ in range(8)
        ]
        core = cluster.node(src).core(5 + i)
        sim.process(sender(f"send{i}", core, cluster.link(src, 2), messages), name=f"send{i}")
    sim.run()
    return {
        "trace": trace,
        "now": sim.now,
        "pipe_bytes": [
            (node.dram.total_bytes, node.nic_tx.total_bytes, node.nic_rx.total_bytes)
            for node in cluster.nodes
        ],
        "busy_seconds": [core.counters.busy_seconds for core in node0.cores],
        "events": sim.scheduled_events,
    }


@pytest.mark.parametrize("config_name", sorted(_CONFIGS))
def test_one_entry_per_wait_dispatches_like_the_spawned_mechanism(config_name):
    fused = _run_wait_script("fused", config_name)
    spawned = _run_wait_script("spawned", config_name)
    assert fused.pop("events") < spawned.pop("events")
    assert fused == spawned
    # The script exercises what it claims to: same-instant resumptions,
    # every message delivered, and datagrams dropped at and during cuts.
    trace = fused["trace"]
    assert len(trace) == 5 * 12 + 4 * 8 + 7 * 2
    assert any(a[0] == b[0] for a, b in zip(trace, trace[1:]))
    datagrams = {name: ok for _t, name, ok in trace if type(ok) is bool}
    assert datagrams == {
        "probe-at-cut": False, "probe-in-cut": False, "probe-before-cut": True,
        "probe-at-long-cut": False, "probe-in-flight": False,
        "send-at-cut": True, "send-at-long-cut": True,
    }


# -- a work request is a chain of kernel callbacks ------------------------------
#
# Test-local copies of the child processes a message used to spawn: a WRITE
# or SEND ran the link's hops in a generator process (``_write_proc`` /
# ``_send_proc`` driving the old ``Link.send`` body with ``yield from``), an
# IPoIB segment walked its TX, RTO, flight and RX waits in one (``_wire``).
# The seeded script below must dispatch identically through them and through
# the callback chains: the same resumes, the same scheduled events.


def _spawned_link_send(link, nbytes, overhead_s=None):
    yield Timeout(0.0)
    cluster = link.cluster
    src, dst = link.src.index, link.dst.index
    while not cluster.can_reach(src, dst):
        yield cluster.heal_wait(src, dst)
    nic = link.src.config.nic
    overhead = nic.nic_processing_s if overhead_s is None else overhead_s
    yield Timeout(link.src.nic_tx.reserve(nbytes, overhead) - cluster.sim.now)
    latency = nic.propagation_latency_s + cluster.config.switch_latency_s
    yield Timeout(latency + cluster.extra_latency(src, dst))
    yield Timeout(link.dst.nic_rx.reserve(nbytes) - cluster.sim.now)
    return nbytes


class _SpawningQueuePair(QueuePair):
    """A queue pair whose work requests are spawned generator processes."""

    def post_write(self, core, payload, nbytes, remote_region, remote_offset,
                   rkey=None, signaled=True, ack_signal=None, xfer_state=None):
        wr_id = next(verbs._wr_ids)
        yield from core.execute(verbs._doorbell_cost(self.local), 1.0)
        core.counters.count_network(nbytes)
        self.outstanding += 1
        key = rkey if rkey is not None else remote_region.rkey
        self.local.sim.process(
            self._write_proc(wr_id, payload, nbytes, remote_region, remote_offset,
                             key, signaled, ack_signal, xfer_state),
            name=f"{self.name}.write",
        )
        return wr_id

    def _write_proc(self, wr_id, payload, nbytes, remote_region, remote_offset,
                    rkey, signaled, ack_signal, xfer_state):
        nic = self.local.config.nic
        pressure = 1.0 + max(0, self.outstanding - 1) / self.WQE_CACHE_DEPTH
        yield from _spawned_link_send(self.link, nbytes, nic.nic_processing_s * pressure)
        faults = self.local.sim.faults
        if faults is not None and (
            faults.should_drop_write(self.local.index, nbytes)
            or faults.is_crashed_node(self.remote.index)
            or faults.is_crashed_node(self.local.index)
        ):
            self.outstanding -= 1
            return
        if xfer_state is not None and xfer_state.get("delivered"):
            self.outstanding -= 1
            return
        remote_region.remote_store(rkey, remote_offset, payload, nbytes)
        if xfer_state is not None:
            xfer_state["delivered"] = True
        self.outstanding -= 1
        if ack_signal is not None and not ack_signal.fired:
            yield Timeout(nic.propagation_latency_s)
            if not ack_signal.fired:
                ack_signal.fire(nbytes)
        if signaled:
            yield Timeout(self.local.config.nic.propagation_latency_s)
            self.send_cq.push(Completion(wr_id, WorkKind.WRITE, nbytes))

    def post_send(self, core, payload, nbytes, signaled=False):
        wr_id = next(verbs._wr_ids)
        yield from core.execute(verbs._doorbell_cost(self.local), 1.0)
        core.counters.count_network(nbytes)
        self.local.sim.process(
            self._send_proc(wr_id, payload, nbytes, signaled), name=f"{self.name}.send"
        )
        return wr_id

    def _send_proc(self, wr_id, payload, nbytes, signaled):
        yield from _spawned_link_send(self.link, nbytes)
        self.peer_queue.put((payload, nbytes))
        if signaled:
            yield Timeout(self.local.config.nic.propagation_latency_s)
            self.send_cq.push(Completion(wr_id, WorkKind.SEND, nbytes))


class _SpawningIpoibChannel(IpoibChannel):
    """An IPoIB channel whose segments are spawned generator processes."""

    def send(self, core, payload, nbytes):
        self._drain_acks()
        while not self._flow.can_send():
            stall_start = self.sim.now
            yield from core.spin_wait(self._acks.get())
            self._flow.refill(1)
            self.stats.record_stall(self.sim.now - stall_start)
        self._flow.spend()
        yield from core.execute(ipoib._syscall_cost(self.src), 1.0)
        copy = self.src.cost_model.cache.streaming_cost(2 * max(nbytes, 1))
        yield from core.execute(copy, 1.0)
        core.counters.count_network(nbytes)
        self.sim.process(self._wire(payload, nbytes), name=f"{self.name}.wire")
        self.stats.record_send(nbytes)

    def _wire(self, payload, nbytes):
        sent_at = self.sim.now
        wire_bytes = max(nbytes, 64)
        if self.src.index != self.dst.index:
            yield self.fabric.tx(self.src).transfer(wire_bytes)
            faults = self.sim.faults
            if faults is not None:
                rto = faults.rto_s
                attempts = 0
                while faults.should_drop_write(self.src.index, wire_bytes):
                    attempts += 1
                    if attempts > faults.max_retries:
                        raise ProtocolError("retransmissions exhausted")
                    yield Timeout(rto)
                    rto *= 2.0
                    yield self.fabric.tx(self.src).transfer(wire_bytes)
            yield Timeout(
                self.src.config.nic.ipoib_latency_s
                + self.fabric.cluster.extra_latency(self.src.index, self.dst.index)
            )
            yield self.fabric.rx(self.dst).transfer(wire_bytes)
        else:
            yield Timeout(5e-6)
        self._arrivals.put((sent_at, payload, nbytes))


class _StubFaults:
    """The fault surface a work request reads: seeded drops, crashed nodes."""

    max_retries = 8

    def __init__(self, seed, rto_s):
        self._draws = np.random.default_rng(seed)
        self.rto_s = rto_s
        self.crashed = set()

    def should_drop_write(self, src_node_index, nbytes):
        return bool(self._draws.random() < 0.2)

    def is_crashed_node(self, node_index):
        return node_index in self.crashed


def _run_work_request_script(mechanism, config_name, seed):
    """WRITEs (signaled or not, reliable ones with an ACK signal and a
    first-delivery-wins record, retransmitted on an RTO), SENDs, IPoIB
    segments with drops and retransmits, a peer that crashes, and cuts that
    land and heal while messages are in flight; returns what an observer
    sees."""
    config = _CONFIGS[config_name]
    sim = Simulator()
    cluster = Cluster(sim, config)
    nic = config.node.nic
    hop = nic.propagation_latency_s + config.switch_latency_s
    # Small messages are ACKed inside one RTO, 16 KiB ones are not.
    faults = _StubFaults(seed, rto_s=4 * hop + 24576 / nic.bandwidth_bytes_per_s)
    sim.faults = faults
    qp_cls, ipoib_cls = (
        (_SpawningQueuePair, _SpawningIpoibChannel) if mechanism == "spawned"
        else (QueuePair, IpoibChannel)
    )
    nodes = cluster.nodes

    def connect(a, b):
        qp_a = qp_cls(nodes[a], nodes[b], cluster.link(a, b), name=f"qp{a}{b}")
        qp_b = qp_cls(nodes[b], nodes[a], cluster.link(b, a), name=f"qp{b}{a}")
        qp_a.peer_queue, qp_b.peer_queue = qp_b.recv_queue, qp_a.recv_queue
        return qp_a, qp_b

    qp01, qp10 = connect(0, 1)
    qp02, _qp20 = connect(0, 2)
    heal_waits = []
    heal_wait = cluster.heal_wait
    cluster.heal_wait = lambda src, dst: heal_waits.append((src, dst)) or heal_wait(src, dst)
    rng = np.random.default_rng(seed)
    trace = []
    first_wr = []

    def note(who, value):
        trace.append((sim.now, who, value))

    def wr(wr_id):
        """Work-request ids relative to the run's first (the counter is global)."""
        if not first_wr:
            first_wr.append(wr_id)
        return wr_id - first_wr[0]

    slot = 1 << 17
    regions = {}
    for node in (1, 2):
        region = MemoryRegion(node, 64 * slot, name=f"r{node}")
        region.on_store = lambda offset, node=node: note(f"land{node}", offset // slot)
        regions[node] = region

    def writer(name, qp, region, core, count, reliable_share):
        for i in range(count):
            nbytes = int(rng.choice((64, 1024, 16384)))
            signaled = bool(rng.random() < 0.5)
            if rng.random() >= reliable_share:
                got = yield from qp.post_write(core, (name, i), nbytes, region, i * slot,
                                               signaled=signaled)
                note(name, ("posted", wr(got)))
            else:
                ack, xfer = Signal(name=f"{name}.ack{i}"), {"delivered": False}
                for attempt in range(4):
                    got = yield from qp.post_write(
                        core, (name, i, attempt), nbytes, region, i * slot,
                        signaled=signaled, ack_signal=ack, xfer_state=xfer,
                    )
                    index, value = yield FirstOf([ack, Timeout(faults.rto_s)])
                    note(name, ("ack" if index == 0 else "rto", wr(got), value))
                    if index == 0:
                        break
            if signaled:
                completions = yield from qp.poll_cq(core)
                note(name, [(wr(c.wr_id), c.kind.value, c.nbytes) for c in completions])
            yield Timeout(float(rng.choice((0.0, hop / 2, 2 * hop))))

    def sender(core, count):
        for i in range(count):
            signaled = bool(rng.random() < 0.5)
            got = yield from qp10.post_send(core, ("send", i), int(rng.choice((16, 64))),
                                            signaled=signaled)
            note("send", wr(got))
            if rng.random() < 0.5:
                yield Timeout(hop)
        yield Timeout(8 * hop)
        completions = yield from qp10.poll_cq(core)
        note("send", [(wr(c.wr_id), c.kind.value, c.nbytes) for c in completions])

    def receiver(count):
        for _ in range(count):
            got = yield qp01.recv()
            note("recv", got)

    fabric = ipoib.IpoibFabric(cluster)
    socket = ipoib_cls(fabric, nodes[2], nodes[1], credits=3, buffer_bytes=1 << 16,
                       name="sock21")
    loopback = ipoib_cls(fabric, nodes[1], nodes[1], credits=2, name="sock11")

    def socket_producer(channel, core, count):
        for i in range(count):
            yield from channel.send(core, (channel.name, i), int(rng.choice((32, 8192))))
            note(channel.name, i)

    def socket_consumer(channel, core, count):
        for _ in range(count):
            payload = yield from channel.recv(core)
            note(channel.name, payload)
            yield from channel.release(core)

    def cutter(src, dst, at, heal_after):
        yield Timeout(at)
        cluster.block(src, dst)
        note("cut", (src, dst))
        yield Timeout(heal_after)
        cluster.unblock(src, dst)
        note("heal", (src, dst))

    def crasher(node, at):
        yield Timeout(at)
        faults.crashed.add(node)
        note("crash", node)

    sim.process(writer("w01", qp01, regions[1], nodes[0].core(0), 24, 0.5), name="w01")
    sim.process(writer("w02", qp02, regions[2], nodes[0].core(1), 16, 1.0), name="w02")
    sim.process(sender(nodes[1].core(0), 20), name="send")
    sim.process(receiver(20), name="recv")
    sim.process(socket_producer(socket, nodes[2].core(0), 12), name="sock-prod")
    sim.process(socket_consumer(socket, nodes[1].core(1), 12), name="sock-cons")
    sim.process(socket_producer(loopback, nodes[1].core(2), 6), name="loop-prod")
    sim.process(socket_consumer(loopback, nodes[1].core(3), 6), name="loop-cons")
    for src, dst, at, heal_after in ((0, 1, 3 * hop, 4 * hop), (1, 0, 5 * hop, 30 * hop),
                                     (0, 1, 60 * hop, 2 * hop), (0, 2, 20 * hop, 6 * hop)):
        sim.process(cutter(src, dst, at, heal_after), name=f"cut{src}{dst}")
    sim.process(crasher(2, 40 * hop), name="crash")
    sim.run()
    return {
        "trace": trace,
        "now": sim.now,
        "events": sim.scheduled_events,
        "outstanding": (qp01.outstanding, qp02.outstanding),
        "pipes": [(node.nic_tx.total_bytes, node.nic_rx.total_bytes) for node in nodes],
        "heal_waits": heal_waits,
    }


@pytest.mark.parametrize("config_name", sorted(_CONFIGS))
def test_work_request_chains_dispatch_like_the_spawned_processes(rng, config_name):
    seed = int(rng.integers(1 << 30))
    chained = _run_work_request_script("chained", config_name, seed)
    spawned = _run_work_request_script("spawned", config_name, seed)
    assert chained == spawned
    # The script exercises what it claims to.
    kinds = [value[0] for _t, who, value in chained["trace"]
             if who in ("w01", "w02") and isinstance(value, tuple)]
    assert {"posted", "ack", "rto"} <= set(kinds)
    whos = [who for _t, who, _value in chained["trace"]]
    assert whos.count("recv") == 20 and "crash" in whos
    assert whos.count("sock21") == 24 and whos.count("sock11") == 12
    assert chained["heal_waits"]
