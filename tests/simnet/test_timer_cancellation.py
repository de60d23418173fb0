"""Timer cancellation: FirstOf losers leave the queue instead of lingering.

The historical behaviour let every lost race (an RTO timer beaten by its
ACK, a credit timeout beaten by a credit) stay scheduled until its
deadline, firing into a no-op — so an RTO-heavy run dragged a tail of
dead timers through every queue operation.  With cancellation tokens the
loser is marked dead the moment the winner fires: it stops counting as
pending, never fires, and never holds the clock to its deadline.
"""

import pytest

from repro.common.errors import SimulationError
from repro.simnet.kernel import FirstOf, Signal, Simulator, Timeout


def test_firstof_cancels_losing_timer():
    sim = Simulator()
    results = []

    def body():
        ack = Signal(name="ack")
        sim.call_in(0.1, ack.fire, "acked")
        result = yield FirstOf([ack, Timeout(5.0)])
        results.append(result)
        # The losing 5s RTO timer must be gone *now*, not at t=5.
        assert sim.pending_timers == 0
        assert sim.cancelled_events == 1

    sim.process(body())
    final = sim.run()
    assert results == [(0, "acked")]
    # No dead timer held the clock back to its deadline either.
    assert final == pytest.approx(0.1)


def test_firstof_cancels_losing_signal_subscription():
    sim = Simulator()

    def body():
        lost = Signal(name="never")
        result = yield FirstOf([Timeout(0.5, "timer"), lost])
        assert result == (0, "timer")
        # The loser's waiter-list subscription was dropped: firing the
        # signal later reaches only real waiters.
        assert lost._waiters == []

    sim.process(body())
    sim.run()


def test_rto_heavy_run_does_not_grow_queue():
    """The satellite assertion: an RTO-heavy workload — every send races
    a retransmission timer that loses to the ACK — keeps the timer queue
    flat instead of accumulating one doomed timer per send."""
    sim = Simulator()
    rounds = 500
    rto_s = 1.0  # long RTO vs. 1ms ACKs: uncancelled timers would pile up
    high_water = []

    def sender():
        for _ in range(rounds):
            ack = Signal(name="ack")
            sim.call_in(0.001, ack.fire, None)
            index, _value = yield FirstOf([ack, Timeout(rto_s)])
            assert index == 0  # the ACK always wins
            high_water.append(sim.pending_timers)

    sim.process(sender())
    sim.run()
    assert sim.cancelled_events == rounds
    # Flat residency: never more than the single in-flight round's timer
    # (already cancelled by the time we sample), and empty at the end.
    assert max(high_water) == 0
    assert sim.pending_timers == 0
    # Without cancellation the run would have ended at the last timer's
    # deadline; with it, the clock stops at the last ACK.
    assert sim.now == pytest.approx(rounds * 0.001)


def test_cancelled_timer_never_fires_callback():
    sim = Simulator()
    fired = []

    handle = Timeout(1.0, "late")._subscribe_cancellable(
        sim, lambda value, exc: fired.append(value)
    )
    sim.call_in(2.0, fired.append, "end")
    assert sim.pending_timers == 2
    assert handle.cancel() is True
    assert handle.cancel() is False  # idempotent
    assert sim.pending_timers == 1
    sim.run()
    assert fired == ["end"]


def test_cancel_after_fire_is_refused():
    sim = Simulator()
    fired = []
    handle = Timeout(0.5)._subscribe_cancellable(
        sim, lambda value, exc: fired.append("timer")
    )
    sim.run()
    assert fired == ["timer"]
    assert handle.cancel() is False
    assert sim.cancelled_events == 0


def test_cancellation_preserves_same_timestamp_siblings():
    """Cancelling one of several same-timestamp timers leaves its
    siblings firing in seq order."""
    sim = Simulator()
    order = []
    keep_a = Timeout(1.0, "a")._subscribe_cancellable(
        sim, lambda v, e: order.append(v)
    )
    doomed = Timeout(1.0, "b")._subscribe_cancellable(
        sim, lambda v, e: order.append(v)
    )
    Timeout(1.0, "c")._subscribe_cancellable(sim, lambda v, e: order.append(v))
    Timeout(2.0, "d")._subscribe_cancellable(sim, lambda v, e: order.append(v))
    assert doomed.cancel() is True
    assert keep_a is not None
    sim.run()
    assert order == ["a", "c", "d"]
    assert sim.now == pytest.approx(2.0)


def test_same_instant_timer_cancels_until_it_fires():
    """Any not-yet-fired timer cancels — including one due at the very
    instant being dispatched; one that already fired refuses."""
    sim = Simulator()
    order = []
    outcomes = []
    handles = {}

    def first(value, exc):
        order.append("first")
        outcomes.append(handles["second"].cancel())

    def third(value, exc):
        order.append("third")
        outcomes.append(handles["first"].cancel())

    handles["first"] = Timeout(1.0)._subscribe_cancellable(sim, first)
    handles["second"] = Timeout(1.0)._subscribe_cancellable(
        sim, lambda v, e: order.append("second")
    )
    Timeout(1.0)._subscribe_cancellable(sim, third)
    sim.run()
    assert order == ["first", "third"]
    assert outcomes == [True, False]
    assert sim.cancelled_events == 1
    assert sim.pending_timers == 0


def test_cancelling_earliest_timer_leaves_the_next_pending():
    sim = Simulator()
    order = []
    first = Timeout(1.0, "head")._subscribe_cancellable(
        sim, lambda v, e: order.append(v)
    )
    Timeout(3.0, "later")._subscribe_cancellable(sim, lambda v, e: order.append(v))
    assert first.cancel() is True
    assert sim.pending_timers == 1
    sim.run()
    assert order == ["later"]
    assert sim.now == pytest.approx(3.0)


def test_chaos_drop_chunk_run_keeps_timer_queue_flat():
    """End-to-end: a DROP_CHUNK chaos run (every reliable send races an
    RTO timer; drops force real retransmissions) must cancel its lost
    timers and drain with no live timer left."""
    from repro.faults.plan import FaultPlan
    from repro.runtime import REGISTRY, make_workload

    nodes = 3
    workload = make_workload("ysb", records_per_thread=400, batch_records=100)
    baseline = REGISTRY.create("slash", nodes).run(
        workload.build_query(), workload.flows(nodes, 2)
    )
    horizon = baseline.sim_seconds
    plan = FaultPlan.preset("drop-chunk", 7, nodes, horizon)
    workload = make_workload("ysb", records_per_thread=400, batch_records=100)
    engine = REGISTRY.create("slash", nodes).attach_faults(
        plan, dict(rto_s=max(5e-6, horizon * 0.001))
    )
    faulted = engine.run(workload.build_query(), workload.flows(nodes, 2))
    stats = faulted.extra["kernel_queue"]
    # Races happened and their losers were dropped early...
    assert stats["cancelled_events"] > 0
    # ...so the drained simulator holds no dead weight.
    assert stats["pending_timers_at_drain"] == 0
    assert stats["cancelled_events"] < stats["scheduled_events"]


def test_negative_timeout_still_rejected():
    with pytest.raises(SimulationError, match="negative delay"):
        Timeout(-0.5)
