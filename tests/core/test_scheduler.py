"""Tests for the coroutine-based worker scheduler (paper Fig. 3)."""

import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import SimulationError
from repro.core.scheduler import SCHED_YIELD, CoroScheduler, Park
from repro.simnet.cluster import Cluster
from repro.simnet.kernel import Signal, Simulator, Timeout


@pytest.fixture()
def setup():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(nodes=1))
    core = cluster.node(0).core(0)
    return sim, core, CoroScheduler(core, name="t")


def test_single_task_runs_to_completion(setup):
    sim, _core, sched = setup
    log = []

    def task():
        log.append("a")
        yield Timeout(1)
        log.append("b")

    sched.add(task())
    sim.run_until_process(sim.process(sched.run()))
    assert log == ["a", "b"]
    assert sim.now == pytest.approx(1)


def test_sched_yield_interleaves_round_robin(setup):
    sim, _core, sched = setup
    log = []

    def task(tag):
        for i in range(3):
            log.append(f"{tag}{i}")
            yield SCHED_YIELD

    sched.add(task("a"))
    sched.add(task("b"))
    sim.process(sched.run())
    sim.run()
    assert log == ["a0", "b0", "a1", "b1", "a2", "b2"]


def test_parked_task_does_not_block_others(setup):
    """The paper's key scheduler property: an empty channel parks its
    coroutine while compute tasks keep running."""
    sim, _core, sched = setup
    log = []
    data_ready = Signal()

    def rdma_poller():
        value = yield Park(data_ready)
        log.append(("polled", value, sim.now))

    def compute():
        for _ in range(3):
            yield Timeout(1)
            log.append(("compute", sim.now))

    def firer():
        yield Timeout(2.5)
        data_ready.fire("buf")

    sched.add(rdma_poller())
    sched.add(compute())
    sim.process(sched.run())
    sim.process(firer())
    sim.run()
    assert ("compute", 1.0) in log
    assert ("compute", 2.0) in log
    assert ("polled", "buf", 2.5) in log or ("polled", "buf", 3.0) in log


def test_all_parked_spin_waits_and_charges_core(setup):
    sim, core, sched = setup

    def waiter(sig):
        value = yield Park(sig)
        return value

    sig = Signal()

    def firer():
        yield Timeout(1e-3)
        sig.fire(42)

    sched.add(waiter(sig))
    sim.process(sched.run())
    sim.process(firer())
    sim.run()
    from repro.simnet.counters import CycleCategory

    freq = core.frequency_hz
    assert core.counters.cycles[CycleCategory.CORE] >= 0.9 * 1e-3 * freq


def test_park_delivers_value_to_task(setup):
    sim, _core, sched = setup
    received = []
    sig = Signal()
    sig.fire("payload")

    def task():
        value = yield Park(sig)
        received.append(value)

    sched.add(task())
    sim.process(sched.run())
    sim.run()
    assert received == ["payload"]


def test_switches_are_counted_and_charged(setup):
    sim, core, sched = setup

    def task():
        yield SCHED_YIELD
        yield SCHED_YIELD

    sched.add(task())
    sim.process(sched.run())
    sim.run()
    assert sched.switches == 3
    assert core.counters.instructions > 0


def test_bad_yield_value_raises(setup):
    sim, _core, sched = setup

    def task():
        yield 42

    sched.add(task())
    sim.process(sched.run())
    with pytest.raises(SimulationError, match="expected a Waitable"):
        sim.run()


def test_non_generator_task_rejected(setup):
    _sim, _core, sched = setup
    with pytest.raises(SimulationError):
        sched.add(lambda: None)  # type: ignore[arg-type]


def test_task_count_tracks_live_tasks(setup):
    sim, _core, sched = setup
    sig = Signal()
    progress = []

    def parked():
        progress.append("parked")
        yield Park(sig)
        progress.append("woken")

    sched.add(parked())
    proc = sim.process(sched.run())
    sim.run(until=0.1)
    assert progress == ["parked"]  # parked, not dead
    assert not proc.finished
    sig.fire(None)
    sim.run()
    assert progress == ["parked", "woken"]
    assert proc.finished
