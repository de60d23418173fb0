"""Unit tests for queue pairs, WRITE/SEND verbs, and completion queues."""

import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import ProtocolError
from repro.rdma.connection import ConnectionManager
from repro.rdma.verbs import WorkKind
from repro.simnet.cluster import Cluster
from repro.simnet.kernel import Simulator, Timeout


@pytest.fixture()
def setup():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(nodes=3))
    cm = ConnectionManager(cluster)
    return sim, cluster, cm


def test_write_delivers_payload_atomically(setup):
    sim, cluster, cm = setup
    qp_a, _qp_b = cm.connect(0, 1)
    region = cm.register_region(1, 1 << 20)
    core = cluster.node(0).core(0)
    observations = []

    def sender():
        yield from qp_a.post_write(core, "payload", 64 * 1024, region, 0)

    def watcher():
        # Immediately after posting, nothing is visible yet.
        yield Timeout(1e-9)
        observations.append(region.poll(0))
        yield Timeout(1e-3)
        observations.append(region.poll(0))

    sim.process(sender())
    sim.process(watcher())
    sim.run()
    assert observations == [False, True]
    assert region.load(0) == ("payload", 64 * 1024)


def test_write_completion_signaled(setup):
    sim, cluster, cm = setup
    qp_a, _ = cm.connect(0, 1)
    region = cm.register_region(1, 1 << 20)
    core = cluster.node(0).core(0)
    results = {}

    def sender():
        wr = yield from qp_a.post_write(core, "p", 4096, region, 0, signaled=True)
        yield Timeout(1e-3)
        completions = yield from qp_a.poll_cq(core)
        results["wr"] = wr
        results["completions"] = completions

    sim.process(sender())
    sim.run()
    (completion,) = results["completions"]
    assert completion.wr_id == results["wr"]
    assert completion.kind == WorkKind.WRITE
    assert completion.nbytes == 4096


def test_write_unsignaled_generates_no_completion(setup):
    sim, cluster, cm = setup
    qp_a, _ = cm.connect(0, 1)
    region = cm.register_region(1, 1 << 20)
    core = cluster.node(0).core(0)

    def sender():
        yield from qp_a.post_write(core, "p", 4096, region, 0, signaled=False)
        yield Timeout(1e-3)

    sim.process(sender())
    sim.run()
    assert len(qp_a.send_cq) == 0
    assert region.poll(0)


def test_write_to_wrong_node_region_rejected(setup):
    sim, cluster, cm = setup
    qp_a, _ = cm.connect(0, 1)
    region_on_2 = cm.register_region(2, 1 << 20)
    core = cluster.node(0).core(0)

    def sender():
        yield from qp_a.post_write(core, "p", 64, region_on_2, 0)

    sim.process(sender())
    with pytest.raises(ProtocolError, match="peers node"):
        sim.run()


def test_writes_on_one_qp_arrive_in_order(setup):
    sim, cluster, cm = setup
    qp_a, _ = cm.connect(0, 1)
    region = cm.register_region(1, 1 << 20)
    core = cluster.node(0).core(0)
    arrivals = []

    def sender():
        for i in range(4):
            yield from qp_a.post_write(core, f"m{i}", 128 * 1024, region, i * 256 * 1024)

    def watcher():
        seen = set()
        for _ in range(200):
            yield Timeout(2e-6)
            for offset in region.occupied_offsets():
                if offset not in seen:
                    seen.add(offset)
                    arrivals.append(offset)
            if len(seen) == 4:
                return

    sim.process(sender())
    sim.process(watcher())
    sim.run()
    assert arrivals == sorted(arrivals)


def test_send_recv_roundtrip(setup):
    sim, cluster, cm = setup
    qp_a, qp_b = cm.connect(0, 1)
    core_a = cluster.node(0).core(0)
    received = []

    def sender():
        yield from qp_a.post_send(core_a, {"credit": 1}, 16)

    def receiver():
        payload, nbytes = yield qp_b.recv()
        received.append((payload, nbytes, sim.now))

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    (payload, nbytes, when) = received[0]
    assert payload == {"credit": 1}
    assert nbytes == 16
    assert when > 0  # latency applied


def test_try_recv_nonblocking(setup):
    sim, cluster, cm = setup
    qp_a, qp_b = cm.connect(0, 1)
    core_a = cluster.node(0).core(0)
    assert qp_b.try_recv() == (False, None, 0)

    def sender():
        yield from qp_a.post_send(core_a, "tok", 8)

    sim.process(sender())
    sim.run()
    ok, payload, nbytes = qp_b.try_recv()
    assert (ok, payload, nbytes) == (True, "tok", 8)


def test_send_on_unpaired_qp_raises(setup):
    sim, cluster, cm = setup
    qp_a, _ = cm.connect(0, 1)
    qp_a.peer_queue = None
    core = cluster.node(0).core(0)

    def sender():
        yield from qp_a.post_send(core, "x", 8)

    sim.process(sender())
    with pytest.raises(ProtocolError, match="unpaired"):
        sim.run()


def test_posting_charges_doorbell_to_core(setup):
    sim, cluster, cm = setup
    qp_a, _ = cm.connect(0, 1)
    region = cm.register_region(1, 1 << 20)
    core = cluster.node(0).core(0)

    def sender():
        yield from qp_a.post_write(core, "p", 64, region, 0)

    sim.process(sender())
    sim.run()
    assert core.counters.total_cycles > 0
    assert core.counters.network_bytes == 64


def test_connection_manager_counts(setup):
    _sim, _cluster, cm = setup
    cm.connect(0, 1)
    cm.connect(0, 2)
    assert cm.connection_count == 2


def test_connect_self_rejected(setup):
    _sim, _cluster, cm = setup
    with pytest.raises(ProtocolError):
        cm.connect(1, 1)


def test_register_region_respects_dram(setup):
    _sim, cluster, cm = setup
    with pytest.raises(ProtocolError, match="exceeds DRAM"):
        cm.register_region(0, cluster.config.node.dram_bytes + 1)
    region = cm.register_region(1, 8192)
    assert (region.node_index, region.nbytes) == (1, 8192)


def test_write_bandwidth_matches_nic(setup):
    """A 1 MiB write takes roughly size/bandwidth end to end."""
    sim, cluster, cm = setup
    qp_a, _ = cm.connect(0, 1)
    region = cm.register_region(1, 4 << 20)
    core = cluster.node(0).core(0)
    nbytes = 1 << 20
    done_at = {}

    def sender():
        yield from qp_a.post_write(core, "big", nbytes, region, 0)

    def watcher():
        while not region.poll(0):
            yield Timeout(1e-6)
        done_at["t"] = sim.now

    sim.process(sender())
    sim.process(watcher())
    sim.run()
    bw = cluster.config.node.nic.bandwidth_bytes_per_s
    # tx + rx serialization, small extra for latencies and poll quantum.
    assert done_at["t"] == pytest.approx(2 * nbytes / bw, rel=0.2)
