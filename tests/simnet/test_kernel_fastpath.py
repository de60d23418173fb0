"""Regression tests for the kernel's dispatch loop.

Covers the behaviours no scheduling change may alter:

* ``run_until_process`` surfaces *unobserved* failures of background
  processes exactly like ``run`` does (the historical bug: it silently
  swallowed them);
* the zero-delay ready deque fires events in exactly the ``(when, seq)``
  order a pure heap would have produced;
* every way of driving the simulator — ``run`` or ``run_until_process``,
  with or without a horizon, sanitizer attached or not — dispatches one
  script identically.
"""

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.sanitizer.invariants import Sanitizer
from repro.simnet.kernel import FirstOf, Signal, Simulator, Timeout


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
