"""Edge-case tests for the simulation kernel."""

import pytest

from repro.common.errors import SimulationError
from repro.simnet.cluster import BandwidthPipe
from repro.simnet.kernel import AllOf, Signal, Simulator, Timeout


def test_allof_propagates_child_failure():
    sim = Simulator()
    good = Signal()
    bad = Signal()

    def body():
        with pytest.raises(ValueError):
            yield AllOf([good, bad])
        return "handled"

    def driver():
        yield Timeout(1)
        good.fire(1)
        bad.fail(ValueError("child failed"))

    proc = sim.process(body())
    sim.process(driver())
    assert sim.run_until_process(proc) == "handled"


def test_nested_processes_three_deep():
    sim = Simulator()

    def leaf():
        yield Timeout(1)
        return 1

    def middle():
        value = yield sim.process(leaf())
        yield Timeout(1)
        return value + 1

    def root():
        value = yield sim.process(middle())
        return value + 1

    assert sim.run_until_process(sim.process(root())) == 3
    assert sim.now == pytest.approx(2)


def test_many_waiters_on_one_signal_fifo():
    sim = Simulator()
    sig = Signal()
    order = []

    def waiter(tag):
        yield sig
        order.append(tag)

    for tag in range(5):
        sim.process(waiter(tag))

    def firer():
        yield Timeout(1)
        sig.fire()

    sim.process(firer())
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_process_immediate_return():
    sim = Simulator()

    def body():
        return 5
        yield  # pragma: no cover

    assert sim.run_until_process(sim.process(body())) == 5
    assert sim.now == 0.0


def test_zero_delay_timeout_runs_in_order():
    sim = Simulator()
    order = []

    def a():
        yield Timeout(0)
        order.append("a")

    def b():
        yield Timeout(0)
        order.append("b")

    sim.process(a())
    sim.process(b())
    sim.run()
    assert order == ["a", "b"]


def test_store_many_getters_served_fifo():
    sim = Simulator()
    store = sim.store()
    got = []

    def getter(tag):
        item = yield store.get()
        got.append((tag, item))

    for tag in range(3):
        sim.process(getter(tag))

    def producer():
        yield Timeout(1)
        for item in "xyz":
            store.put(item)

    sim.process(producer())
    sim.run()
    assert got == [(0, "x"), (1, "y"), (2, "z")]


def test_run_on_empty_heap_returns_immediately():
    sim = Simulator()
    assert sim.run() == 0.0
    assert sim.run(until=100) == 0.0


def test_run_until_a_past_horizon_raises_instead_of_rewinding_the_clock():
    sim = Simulator()
    sim.call_in(5, lambda: None)
    sim.call_in(9, lambda: None)
    assert sim.run(until=6.0) == 6.0
    with pytest.raises(SimulationError, match="already 6.0"):
        sim.run(until=1.0)
    assert sim.now == 6.0


def test_exception_inside_callback_does_not_corrupt_clock():
    sim = Simulator()

    def bad():
        yield Timeout(1)
        raise RuntimeError("boom")

    def good():
        yield Timeout(2)
        return sim.now

    sim.process(bad())
    proc = sim.process(good())
    with pytest.raises(RuntimeError):
        sim.run()
    # The failure stopped run(), but the sim can be resumed.
    assert sim.run_until_process(proc) == pytest.approx(2)


NAN = float("nan")


def test_timeout_rejects_nan_delay():
    with pytest.raises(SimulationError, match="NaN"):
        Timeout(NAN)


def test_call_in_rejects_nan_delay():
    sim = Simulator()
    with pytest.raises(SimulationError, match="NaN"):
        sim.call_in(NAN, lambda: None)
    assert sim.scheduled_events == 0


@pytest.mark.parametrize("nbytes, overhead_s", [(NAN, 0.0), (64.0, NAN), (-1.0, 0.0)])
def test_pipe_reserve_rejects_nan_and_negative(nbytes, overhead_s):
    pipe = BandwidthPipe(Simulator(), bytes_per_s=1000.0)
    with pytest.raises(SimulationError):
        pipe.reserve(nbytes, overhead_s)
    with pytest.raises(SimulationError):
        pipe.transfer(nbytes, overhead_s)
    assert pipe.total_bytes == 0.0


def test_nan_wait_fails_its_process_and_never_reaches_the_clock():
    """A NaN-keyed entry would sort arbitrarily and set ``now`` to NaN."""
    sim = Simulator()
    fired = []

    def waiter(delay):
        yield Timeout(delay)
        fired.append((delay, sim.now))

    for delay in (1.0, NAN, 2.0, 3.0):
        sim.process(waiter(delay))
    with pytest.raises(SimulationError, match="NaN"):
        sim.run()
    sim.run()
    assert [delay for delay, _now in fired] == [1.0, 2.0, 3.0]
    assert [now for _delay, now in fired] == [1.0, 2.0, 3.0]
    assert sim.now == 3.0
