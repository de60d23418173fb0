"""Edge-case tests for the simulation kernel."""

import pytest

from repro.common.errors import SimulationError
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
