"""Tests for the IPoIB socket-channel model."""

import pytest

from repro.baselines.ipoib import IpoibChannel, IpoibFabric
from repro.channel.channel import CHANNEL_EOS
from repro.common.config import ClusterConfig
from repro.common.errors import ProtocolError
from repro.simnet.cluster import Cluster
from repro.simnet.kernel import Simulator


@pytest.fixture()
def setup():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(nodes=2))
    fabric = IpoibFabric(cluster)
    channel = IpoibChannel(
        fabric, cluster.node(0), cluster.node(1), credits=4, buffer_bytes=64 * 1024
    )
    return sim, cluster, channel


def test_roundtrip_fifo(setup):
    sim, cluster, channel = setup
    core_a = cluster.node(0).core(0)
    core_b = cluster.node(1).core(0)
    received = []

    def producer():
        for i in range(6):
            yield from channel.send(core_a, i, 1024)
        yield from channel.close(core_a)

    def consumer():
        while True:
            payload, _n = yield from channel.recv(core_b)
            if payload is CHANNEL_EOS:
                return
            received.append(payload)
            yield from channel.release(core_b)

    sim.process(producer())
    proc = sim.process(consumer())
    sim.run_until_process(proc)
    assert received == list(range(6))
    assert channel.eos


def test_ipoib_slower_than_rdma_for_same_bytes(setup):
    """The whole point of the model: same bytes, worse time."""
    sim, cluster, channel = setup
    core_a = cluster.node(0).core(0)
    core_b = cluster.node(1).core(0)
    nbytes = 32 * 1024

    def producer():
        yield from channel.send(core_a, "x", nbytes)

    def consumer():
        yield from channel.recv(core_b)

    sim.process(producer())
    proc = sim.process(consumer())
    sim.run_until_process(proc)
    rdma_wire = 2 * nbytes / cluster.config.node.nic.bandwidth_bytes_per_s
    assert sim.now > 2 * rdma_wire  # lower bandwidth + syscalls + latency


def test_window_backpressure(setup):
    sim, cluster, channel = setup
    core = cluster.node(0).core(0)
    sent = []

    def producer():
        for i in range(10):
            yield from channel.send(core, i, 512)
            sent.append(i)

    sim.process(producer())
    sim.run(until=0.05)
    assert sent == [0, 1, 2, 3]  # 4-credit window, consumer never acks


def test_send_after_close_rejected(setup):
    sim, cluster, channel = setup
    core = cluster.node(0).core(0)

    def producer():
        yield from channel.close(core)
        yield from channel.send(core, "late", 8)

    sim.process(producer())
    with pytest.raises(ProtocolError, match="after EOS"):
        sim.run()


def test_oversized_payload_rejected(setup):
    sim, cluster, channel = setup
    core = cluster.node(0).core(0)

    def producer():
        yield from channel.send(core, "big", 1 << 20)

    sim.process(producer())
    with pytest.raises(ProtocolError, match="exceeds buffer"):
        sim.run()


def test_syscall_cost_charged_both_sides(setup):
    sim, cluster, channel = setup
    core_a = cluster.node(0).core(0)
    core_b = cluster.node(1).core(0)

    def producer():
        yield from channel.send(core_a, "x", 4096)

    def consumer():
        yield from channel.recv(core_b)
        yield from channel.release(core_b)

    sim.process(producer())
    proc = sim.process(consumer())
    sim.run_until_process(proc)
    syscall = cluster.config.node.nic.ipoib_syscall_cycles
    assert core_a.counters.total_cycles >= syscall
    assert core_b.counters.total_cycles >= syscall


def test_loopback_skips_nic(setup):
    sim, cluster, _ = setup
    fabric = IpoibFabric(cluster)
    local = IpoibChannel(fabric, cluster.node(0), cluster.node(0))
    core = cluster.node(0).core(0)
    received = []

    def producer():
        yield from local.send(core, "x", 128)

    def consumer():
        payload, _n = yield from local.recv(cluster.node(0).core(1))
        received.append(payload)

    sim.process(producer())
    proc = sim.process(consumer())
    sim.run_until_process(proc)
    assert received == ["x"]
    assert fabric.tx(cluster.node(0)).total_bytes == 0  # no NIC traffic


def test_fabric_pipes_are_shared_per_node(setup):
    sim, cluster, _ = setup
    fabric = IpoibFabric(cluster)
    assert fabric.tx(cluster.node(0)) is fabric.tx(cluster.node(0))
    assert fabric.tx(cluster.node(0)) is not fabric.tx(cluster.node(1))
    assert fabric.tx(cluster.node(0)) is not fabric.rx(cluster.node(0))


# -- the injector's data-plane fault surface --------------------------------
class _FakeFaults:
    """Duck-typed stand-in for the injector's drop-WRITE surface."""

    def __init__(self, drops: int, max_retries: int = 8, rto_s: float = 1e-6):
        self.drops = drops
        self.max_retries = max_retries
        self.rto_s = rto_s
        self.asked = 0

    def should_drop_write(self, src_index: int, nbytes: int) -> bool:
        self.asked += 1
        if self.drops > 0:
            self.drops -= 1
            return True
        return False


def test_dropped_segment_is_retransmitted(setup):
    """TCP semantics: the injector eats segments, the stack retries, the
    payload still arrives exactly once."""
    sim, cluster, channel = setup
    faults = _FakeFaults(drops=2, rto_s=1e-6)
    sim.faults = faults
    core_a = cluster.node(0).core(0)
    core_b = cluster.node(1).core(0)
    received = []

    def producer():
        yield from channel.send(core_a, "x", 1024)

    def consumer():
        payload, _n = yield from channel.recv(core_b)
        received.append(payload)

    sim.process(producer())
    proc = sim.process(consumer())
    sim.run_until_process(proc)
    assert received == ["x"]
    assert faults.drops == 0
    assert faults.asked >= 3  # two drops + the delivered attempt


def test_retransmission_backs_off_exponentially(setup):
    sim, cluster, channel = setup
    rto = 2e-6
    sim.faults = _FakeFaults(drops=3, rto_s=rto)
    core_a = cluster.node(0).core(0)
    core_b = cluster.node(1).core(0)

    def producer():
        yield from channel.send(core_a, "x", 1024)

    def consumer():
        yield from channel.recv(core_b)

    sim.process(producer())
    proc = sim.process(consumer())
    sim.run_until_process(proc)
    # Three RTO waits at doubling intervals: rto + 2*rto + 4*rto.
    assert sim.now >= 7 * rto


def test_blackholed_path_exhausts_retries(setup):
    sim, cluster, channel = setup
    sim.faults = _FakeFaults(drops=10 ** 6, max_retries=3)
    core_a = cluster.node(0).core(0)

    def producer():
        yield from channel.send(core_a, "x", 1024)

    sim.process(producer())
    with pytest.raises(ProtocolError, match="retransmissions exhausted"):
        sim.run()


def test_withheld_acks_starve_the_window_until_flushed(setup):
    """Zero-window fault: releases stop paying the sender until the
    injector lifts the starvation and flush_withheld drains the acks."""
    sim, cluster, channel = setup
    core_a = cluster.node(0).core(0)
    core_b = cluster.node(1).core(0)
    channel.withhold_credits = True
    sent_at = {}

    def producer():
        # credits=4: the fifth send must stall until acks flow again.
        for i in range(5):
            yield from channel.send(core_a, i, 256)
            sent_at[i] = sim.now

    def consumer():
        got = 0
        while got < 4:
            _payload, _n = yield from channel.recv(core_b)
            yield from channel.release(core_b)
            got += 1
        stalled_until = sim.now
        channel.withhold_credits = False
        yield from channel.flush_withheld(core_b)
        _payload, _n = yield from channel.recv(core_b)
        yield from channel.release(core_b)
        return stalled_until

    sim.process(producer())
    proc = sim.process(consumer())
    flushed_at = sim.run_until_process(proc)
    assert channel._withheld == 0
    assert sent_at[4] >= flushed_at  # fifth send waited for the flush
