"""Channels driven by coroutine-scheduler tasks park instead of spinning.

With a single credit per state channel, two peers' shippers both block
for credit at close time; the merge coroutines that would return the
credit share the same cores.  A channel built with ``wait=park`` parks
the blocked task, letting the scheduler interleave — the exact failure
mode the paper's coroutine design exists to prevent (Sec. 5.3).
"""

import math

import pytest

from repro.baselines.reference import SequentialReference
from repro.channel.channel import RdmaChannel
from repro.common.config import ClusterConfig
from repro.core.engine import SlashEngine
from repro.core.scheduler import SCHED_YIELD, CoroScheduler, park
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.rdma.connection import ConnectionManager
from repro.simnet.cluster import Cluster
from repro.simnet.kernel import Simulator, Timeout
from repro.workloads.ysb import YsbWorkload


@pytest.mark.parametrize("credits", [1, 2])
def test_single_credit_state_channels_do_not_deadlock(credits):
    workload = YsbWorkload(records_per_thread=600, key_range=80, batch_records=150)
    flows = workload.flows(3, 2)
    expected = SequentialReference().run(workload.build_query(), flows)
    engine = SlashEngine(epoch_bytes=16 * 1024, credits=credits)
    result = engine.run(workload.build_query(), flows)
    assert set(result.aggregates) == set(expected.aggregates)
    for key, value in expected.aggregates.items():
        assert math.isclose(result.aggregates[key], value, rel_tol=1e-9)


def _parked_channel(credits=1):
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(nodes=2))
    cm = ConnectionManager(cluster)
    channel = RdmaChannel.create(cm, 0, 1, credits=credits, buffer_bytes=4096, wait=park)
    return sim, cluster, channel


def test_close_cooperative_marks_channel_closed():
    sim, cluster, channel = _parked_channel()
    core = cluster.node(0).core(0)
    scheduler = CoroScheduler(core)

    def task():
        yield from channel.producer.close(core)

    scheduler.add(task())
    sim.run_until_process(sim.process(scheduler.run()))
    assert channel.producer.closed


def test_fault_mode_races_park_and_let_sibling_tasks_run():
    """Under a fault plan the one-credit producer races its ACK against
    the RTO and its credit wait against the credit timeout; both races
    park, so a sibling task on the same scheduler keeps running."""
    sim, cluster, channel = _parked_channel(credits=1)
    sim.faults = FaultInjector(sim, FaultPlan(), rto_s=1e-3, credit_timeout_s=2e-6)
    sender = cluster.node(0).core(0)
    producer_sched = CoroScheduler(sender, name="producer")
    consumer_sched = CoroScheduler(cluster.node(1).core(0), name="consumer")
    marks = {}
    ticks = []
    received = []

    def producer():
        marks["start"] = sim.now
        yield from channel.producer.send(sender, "a", 256)  # ACK race
        marks["acked"] = sim.now
        yield from channel.producer.send(sender, "b", 256)  # credit race
        marks["done"] = sim.now

    def sibling():
        while "done" not in marks:
            yield Timeout(1e-7)
            ticks.append(sim.now)
            yield SCHED_YIELD

    def consumer():
        core = consumer_sched.core
        for _ in range(2):
            payload, _nbytes = yield from channel.consumer.recv(core)
            received.append(payload)
            yield Timeout(30e-6)  # hold the buffer: the producer starves
            marks.setdefault("released", sim.now)
            yield from channel.consumer.release(core)

    producer_sched.add(producer(), name="producer")
    producer_sched.add(sibling(), name="sibling")
    consumer_sched.add(consumer(), name="consumer")
    sim.process(consumer_sched.run())
    sim.run_until_process(sim.process(producer_sched.run()))

    assert received == ["a", "b"]
    assert channel.stats.credit_timeouts > 0
    assert any(marks["start"] < t < marks["acked"] for t in ticks)
    # The producer holds no credit from "a"'s ACK until the first release.
    assert any(marks["acked"] < t < marks["released"] for t in ticks)
