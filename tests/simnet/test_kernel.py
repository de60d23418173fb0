"""Unit tests for the discrete-event kernel."""

import gc
import weakref

import pytest

from repro.common.errors import SimulationError
from repro.simnet.kernel import AllOf, FirstOf, Signal, Simulator, Timeout


def test_timeout_advances_time():
    sim = Simulator()

    def body():
        yield Timeout(1.5)
        return sim.now

    proc = sim.process(body())
    assert sim.run_until_process(proc) == pytest.approx(1.5)


def test_timeout_rejects_negative():
    with pytest.raises(SimulationError):
        Timeout(-1)


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    times = []

    def body():
        for _ in range(3):
            yield Timeout(0.25)
            times.append(sim.now)

    sim.process(body())
    sim.run()
    assert times == pytest.approx([0.25, 0.5, 0.75])


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []

    def make(tag):
        def body():
            yield Timeout(1.0)
            order.append(tag)

        return body

    for tag in "abc":
        sim.process(make(tag)())
    sim.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield Timeout(1)
        return 99

    def parent():
        value = yield sim.process(child())
        return value + 1

    assert sim.run_until_process(sim.process(parent())) == 100


def test_waiting_on_finished_process_resumes_immediately():
    sim = Simulator()

    def child():
        yield Timeout(0.5)
        return "done"

    def parent(proc):
        yield Timeout(2.0)
        value = yield proc
        return sim.now, value

    child_proc = sim.process(child())
    when, value = sim.run_until_process(sim.process(parent(child_proc)))
    assert value == "done"
    assert when == pytest.approx(2.0)


def test_exception_in_child_reraised_in_parent():
    sim = Simulator()

    def child():
        yield Timeout(1)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            return str(exc)

    assert sim.run_until_process(sim.process(parent())) == "boom"


def test_unobserved_failure_surfaces_in_run():
    sim = Simulator()

    def body():
        yield Timeout(1)
        raise RuntimeError("silent death")

    sim.process(body())
    with pytest.raises(RuntimeError, match="silent death"):
        sim.run()


def test_signal_wakes_waiter_with_value():
    sim = Simulator()

    def waiter(sig):
        value = yield sig
        return value, sim.now

    def firer(sig):
        yield Timeout(3)
        sig.fire("hello")

    sig = Signal()
    proc = sim.process(waiter(sig))
    sim.process(firer(sig))
    assert sim.run_until_process(proc) == ("hello", 3)


def test_signal_fire_twice_raises():
    sig = Signal()
    sig.fire()
    with pytest.raises(SimulationError):
        sig.fire()


def test_wait_on_already_fired_signal():
    sim = Simulator()
    sig = Signal()
    sig.fire(7)

    def body():
        value = yield sig
        return value

    assert sim.run_until_process(sim.process(body())) == 7


def test_signal_fail_raises_in_waiter():
    sim = Simulator()
    sig = Signal()

    def waiter():
        with pytest.raises(KeyError):
            yield sig
        return True

    def failer():
        yield Timeout(1)
        sig.fail(KeyError("nope"))

    proc = sim.process(waiter())
    sim.process(failer())
    assert sim.run_until_process(proc) is True


def test_allof_waits_for_slowest():
    sim = Simulator()

    def body():
        values = yield AllOf([Timeout(1, "a"), Timeout(5, "b"), Timeout(3, "c")])
        return sim.now, values

    when, values = sim.run_until_process(sim.process(body()))
    assert when == pytest.approx(5)
    assert values == ["a", "b", "c"]


def test_allof_empty_fires_immediately():
    sim = Simulator()

    def body():
        values = yield AllOf([])
        return sim.now, values

    assert sim.run_until_process(sim.process(body())) == (0.0, [])


def test_yield_non_waitable_raises():
    sim = Simulator()

    def body():
        yield 42

    sim.process(body())
    with pytest.raises(SimulationError, match="expected a Waitable"):
        sim.run()


def test_run_until_stops_at_limit():
    sim = Simulator()

    def body():
        while True:
            yield Timeout(1)

    sim.process(body())
    assert sim.run(until=10.5) == pytest.approx(10.5)
    assert sim.now == pytest.approx(10.5)


def test_run_until_process_detects_deadlock():
    sim = Simulator()
    sig = Signal()  # never fired

    def body():
        yield sig

    proc = sim.process(body())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_process(proc)


def test_process_value_before_completion_raises():
    sim = Simulator()

    def body():
        yield Timeout(1)

    proc = sim.process(body())
    with pytest.raises(SimulationError):
        _ = proc.value


def test_non_generator_body_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="generator"):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_store_fifo_and_blocking():
    sim = Simulator()
    store = sim.store()
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((item, sim.now))

    def producer():
        store.put("x")
        yield Timeout(2)
        store.put("y")
        store.put("z")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("x", 0.0), ("y", 2.0), ("z", 2.0)]


def test_store_try_get():
    sim = Simulator()
    store = sim.store()
    assert store.try_get() == (False, None)
    store.put(1)
    assert store.try_get() == (True, 1)
    assert len(store) == 0


def test_call_in_past_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-0.1, lambda: None)


# -- teardown ------------------------------------------------------------------
#
# ``Simulator.close`` ends a run: whatever is still parked holds its frame,
# and a frame that reaches back to what parked it is a reference cycle.
# After close, dropping the simulator must free every case by reference
# counting alone (the collector is off), and no body code past the last
# ``yield`` may run.


class _Owner:
    """Weakly referenceable stand-in for an engine object a body holds."""


def _freed_by_refcount(build):
    """``build(sim, ran)`` launches processes and returns weakly
    referenceable objects they hold; run, close, drop, then report which
    survived, and what the bodies ran past their last yield."""
    ran = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulator()
        refs = [weakref.ref(obj) for obj in build(sim, ran)]
        sim.run(until=2.0)
        sim.close()
        del sim
        return [ref() is not None for ref in refs], ran
    finally:
        if enabled:
            gc.enable()


def test_close_frees_a_process_parked_on_a_store_that_never_fills():
    def build(sim, ran):
        owner = _Owner()
        owner.store = sim.store("never")

        def body():
            item = yield owner.store.get()
            ran.append(item)

        gen = body()
        sim.process(gen, name="parked")
        return [owner, gen]

    alive, ran = _freed_by_refcount(build)
    assert alive == [False, False]
    assert ran == []


def test_close_frees_the_losing_timer_of_a_firstof():
    def build(sim, ran):
        owner = _Owner()
        owner.decided = sim.signal("decided")
        owner.open = sim.signal("open")

        def decided():
            index, _ = yield FirstOf([owner.decided, Timeout(10.0)])
            ran.append(("decided", index))
            yield FirstOf([owner.open, Timeout(10.0)])  # still racing at close
            ran.append("open")

        def firer():
            yield Timeout(1.0)
            owner.decided.fire()

        gen = decided()
        sim.process(gen, name="racer")
        sim.process(firer(), name="firer")
        return [owner, gen]

    alive, ran = _freed_by_refcount(build)
    assert alive == [False, False]
    assert ran == [("decided", 0)]


def test_close_frees_a_finished_process():
    def build(sim, ran):
        owner = _Owner()

        def body():
            yield Timeout(1.0)
            ran.append(owner.proc.name)

        gen = body()
        owner.proc = sim.process(gen, name="done")
        return [owner, gen]

    alive, ran = _freed_by_refcount(build)
    assert ran == ["done"] and alive == [False, False]


def test_close_empties_the_queues_and_the_plane_slots():
    sim = Simulator()
    sim.tracer = sim.faults = sim.sanitize = object()
    sim.elastic = sim.overload = object()

    def body():
        yield Timeout(5.0)

    sim.process(body())
    sim.call_in(0.0, lambda: None)
    sim.close()
    assert sim.pending_timers == 0 and not sim._ready and not sim._live
    assert (sim.tracer, sim.faults, sim.sanitize, sim.elastic, sim.overload) == (None,) * 5


def test_running_a_closed_simulator_raises():
    sim = Simulator()
    sim.run()
    sim.close()
    with pytest.raises(SimulationError, match="closed"):
        sim.run()

    def body():
        yield Timeout(1.0)

    with pytest.raises(SimulationError, match="closed"):
        sim.run_until_process(sim.process(body()))
