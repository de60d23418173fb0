"""Unit tests for the cluster hardware model."""

import gc
import weakref

import pytest

from repro.common.config import ClusterConfig, CpuConfig, NicConfig, NodeConfig
from repro.common.errors import ConfigError
from repro.simnet.cluster import BandwidthPipe, Cluster
from repro.simnet.cost_model import OpCost
from repro.simnet.kernel import Simulator, Timeout


def make_cluster(nodes=2):
    sim = Simulator()
    return sim, Cluster(sim, ClusterConfig(nodes=nodes))


def test_pipe_single_transfer_time():
    sim = Simulator()
    pipe = BandwidthPipe(sim, bytes_per_s=1000.0)
    done_at = []

    def body():
        yield pipe.transfer(500)
        done_at.append(sim.now)

    sim.process(body())
    sim.run()
    assert done_at == [pytest.approx(0.5)]


def test_pipe_serializes_back_to_back():
    sim = Simulator()
    pipe = BandwidthPipe(sim, bytes_per_s=1000.0)
    times = []

    def body(tag):
        yield pipe.transfer(1000)
        times.append(sim.now)

    sim.process(body("a"))
    sim.process(body("b"))
    sim.run()
    assert times == pytest.approx([1.0, 2.0])


def test_pipe_overhead_added():
    sim = Simulator()
    pipe = BandwidthPipe(sim, bytes_per_s=1000.0)
    times = []

    def body():
        yield pipe.transfer(1000, overhead_s=0.5)
        times.append(sim.now)

    sim.process(body())
    sim.run()
    assert times == [pytest.approx(1.5)]


def test_pipe_utilization():
    sim = Simulator()
    pipe = BandwidthPipe(sim, bytes_per_s=1000.0)

    def body():
        yield pipe.transfer(500)

    sim.process(body())
    sim.run()
    # 500 B on a 1000 B/s pipe keeps it busy for half a second.
    assert sim.now == pytest.approx(0.5)
    assert pipe.total_bytes == 500


def test_pipe_rejects_bad_bandwidth():
    with pytest.raises(ConfigError):
        BandwidthPipe(Simulator(), bytes_per_s=0)


def test_cluster_builds_nodes_and_cores():
    _sim, cluster = make_cluster(nodes=3)
    assert len(cluster) == 3
    assert len(cluster.node(0).cores) == 10


def test_link_point_to_point_latency_and_bandwidth():
    sim, cluster = make_cluster()
    nic = cluster.config.node.nic
    nbytes = 64 * 1024
    arrival = []

    def body():
        yield from cluster.link(0, 1).send(nbytes)
        arrival.append(sim.now)

    sim.process(body())
    sim.run()
    expected = (
        nic.nic_processing_s
        + nbytes / nic.bandwidth_bytes_per_s  # tx serialization
        + nic.propagation_latency_s
        + cluster.config.switch_latency_s
        + nbytes / nic.bandwidth_bytes_per_s  # rx serialization
    )
    assert arrival == [pytest.approx(expected)]


def test_link_rejects_self_loop():
    _sim, cluster = make_cluster()
    with pytest.raises(ConfigError):
        cluster.link(1, 1)


def test_incast_congests_receiver():
    """Two senders into one receiver halve effective per-sender bandwidth."""
    sim, cluster = make_cluster(nodes=3)
    nbytes = 1_000_000
    arrivals = []

    def body(src):
        yield from cluster.link(src, 2).send(nbytes)
        arrivals.append(sim.now)

    sim.process(body(0))
    sim.process(body(1))
    sim.run()
    bw = cluster.config.node.nic.bandwidth_bytes_per_s
    # The second message must wait for the first on node 2's RX pipe.
    assert max(arrivals) >= 2 * nbytes / bw


def test_core_execute_charges_counters_and_time():
    sim, cluster = make_cluster()
    core = cluster.node(0).core(0)
    cost = OpCost(instructions=40, retiring=10, core=10)

    def body():
        yield from core.execute(cost, count=100)
        return sim.now

    elapsed = sim.run_until_process(sim.process(body()))
    freq = cluster.config.node.cpu.frequency_hz
    assert elapsed == pytest.approx(100 * 20 / freq)
    assert core.counters.instructions == pytest.approx(4000)
    assert core.counters.records == 0


def test_core_execute_memory_traffic_uses_dram_pipe():
    sim, cluster = make_cluster()
    node = cluster.node(0)
    cost = OpCost(retiring=1, mem_bytes=1e6)

    def body(core):
        yield from core.execute(cost, count=68)  # 68 MB total

    for i in range(2):
        sim.process(body(node.core(i)))
    elapsed = sim.run()
    # 2 cores x 68 MB = 136 MB through a 68 GB/s pipe -> at least 2 ms.
    assert elapsed >= 136e6 / node.config.cpu.dram_bandwidth_bytes_per_s


def test_spin_wait_charges_core_cycles():
    sim, cluster = make_cluster()
    core = cluster.node(0).core(0)

    def body():
        value = yield from core.spin_wait(Timeout(1e-3, "ready"))
        return value

    assert sim.run_until_process(sim.process(body())) == "ready"
    freq = cluster.config.node.cpu.frequency_hz
    from repro.simnet.counters import CycleCategory

    assert core.counters.cycles[CycleCategory.CORE] == pytest.approx(1e-3 * freq)


def test_node_counter_aggregation():
    sim, cluster = make_cluster()
    node = cluster.node(0)
    cost = OpCost(instructions=10, retiring=2.5)

    def body(core):
        yield from core.execute(cost)

    sim.process(body(node.core(0)))
    sim.process(body(node.core(1)))
    sim.run()
    assert node.counters().instructions == pytest.approx(20)
    assert cluster.counters().instructions == pytest.approx(20)


def test_link_jitter_adds_extra_latency_without_dropping():
    # The jitter gray fault's lever: data-plane sends take longer, but
    # every byte still arrives.
    sim, cluster = make_cluster()
    arrival = []

    def body():
        got = yield from cluster.link(0, 1).send(64 * 1024)
        arrival.append((sim.now, got))

    sim.process(body())
    sim.run()
    base_t, base_bytes = arrival[0]

    sim2, cluster2 = make_cluster()
    cluster2.set_extra_latency(0, 1, 1e-3)
    arrival2 = []

    def body2():
        got = yield from cluster2.link(0, 1).send(64 * 1024)
        arrival2.append((sim2.now, got))

    sim2.process(body2())
    sim2.run()
    jittered_t, jittered_bytes = arrival2[0]
    assert jittered_bytes == base_bytes
    assert jittered_t == pytest.approx(base_t + 1e-3)


def test_link_jitter_is_directional_and_clearable():
    _sim, cluster = make_cluster()
    cluster.set_extra_latency(0, 1, 5e-4)
    assert cluster.extra_latency(0, 1) == 5e-4
    assert cluster.extra_latency(1, 0) == 0.0  # reverse direction clean
    cluster.clear_extra_latency(0, 1)
    assert cluster.extra_latency(0, 1) == 0.0


def test_heartbeat_datagrams_ignore_jitter():
    # Deliberate blindness: the failure detector must NOT see gray
    # jitter, otherwise a slow link looks like a dead peer.
    sim, cluster = make_cluster()
    cluster.set_extra_latency(0, 1, 10.0)
    delivered = []

    def body():
        ok = yield from cluster.link(0, 1).send_datagram(64)
        delivered.append((sim.now, ok))

    sim.process(body())
    sim.run()
    t, ok = delivered[0]
    assert ok is True
    assert t < 1.0  # the 10 s jitter never applied


def test_a_message_held_at_a_cut_that_never_heals_is_freed_by_close():
    """The cut's heal signal (held by the cluster) holds the parked chain,
    which reaches the cluster back; closing the run drops the chain, so the
    rack is freed by reference counting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(nodes=2))
        cluster.block(0, 1)
        delivered = []
        cluster.link(0, 1).post(64, None, delivered.append, "held")
        sim.run()
        assert delivered == [] and sim.now == 0.0
        sim.close()
        alive = weakref.ref(cluster)
        del sim, cluster
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


def test_a_held_message_departs_when_the_cut_heals():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(nodes=2))
    cluster.block(0, 1)
    delivered = []
    cluster.link(0, 1).post(64, None, lambda tag: delivered.append((tag, sim.now)), "held")
    sim.call_in(1e-3, cluster.unblock, 0, 1)
    sim.run()
    assert [tag for tag, _at in delivered] == ["held"]
    assert delivered[0][1] > 1e-3
