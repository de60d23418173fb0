"""Unit tests for each runtime invariant checker in isolation.

Every checker is driven directly through its ``note_`` / ``check_``
hooks against a minimal fake simulator, proving both directions: legal
sequences pass (and are counted), illegal ones raise a structured
:class:`InvariantViolation` naming the right invariant.
"""

import numpy as np
import pytest

from repro.sanitizer.invariants import InvariantViolation, Sanitizer
from repro.simnet.trace import Tracer
from repro.state.epoch import EpochDelta
from repro.state.lss import window_column


class FakeSim:
    def __init__(self):
        self.now = 0.0
        self.tracer = None


class FakeQueue:
    def __init__(self, credits=4, set_slots=()):
        self.credits = credits
        self._set = set(set_slots)

    def poll_slot(self, slot):
        return slot in self._set


def _delta(epoch, partition=0, helper=1):
    return EpochDelta(
        operator_id="op", partition=partition, from_executor=helper,
        epoch=epoch, keys=["k"], key_windows=window_column(["k"]), payloads=np.ones(1),
        nbytes=32, watermark=0.0,
    )


@pytest.fixture
def san():
    return Sanitizer(FakeSim())


class TestEventTime:
    def test_monotone_events_pass(self, san):
        san.note_event(1.0, 0.0)
        san.note_event(1.0, 1.0)  # zero-delay events at the same instant
        san.note_event(2.5, 1.0)
        assert san.checks["event-time"] == 3

    def test_regressing_event_fails(self, san):
        san.note_event(5.0, 0.0)
        with pytest.raises(InvariantViolation) as exc:
            san.note_event(4.0, 5.0)
        assert exc.value.invariant == "event-time"


class TestCreditConservation:
    def test_balanced_protocol_passes(self, san):
        for _ in range(4):
            san.note_send(1, "ch", credits=4)
        for _ in range(4):
            san.note_credit_return(1, "ch", 1, credits=4)
        san.note_credit_apply(1, "ch", 4, credits=4)
        san.note_send(1, "ch", credits=4)
        assert san.checks["credit-conservation"] == 10

    def test_overspend_fails(self, san):
        for _ in range(2):
            san.note_send(1, "ch", credits=2)
        with pytest.raises(InvariantViolation) as exc:
            san.note_send(1, "ch", credits=2)
        assert exc.value.invariant == "credit-conservation"
        assert "overspend" in str(exc.value)

    def test_phantom_credit_return_fails(self, san):
        san.note_send(1, "ch", credits=4)
        san.note_credit_return(1, "ch", 1, credits=4)
        with pytest.raises(InvariantViolation, match="phantom"):
            san.note_credit_return(1, "ch", 1, credits=4)

    def test_forged_credit_apply_fails(self, san):
        san.note_send(1, "ch", credits=4)
        with pytest.raises(InvariantViolation, match="forged"):
            san.note_credit_apply(1, "ch", 1, credits=4)

    def test_channels_are_independent(self, san):
        for _ in range(2):
            san.note_send(1, "a", credits=2)
        san.note_send(2, "b", credits=2)  # other channel unaffected


class TestBufferLifecycle:
    def test_clear_slot_passes(self, san):
        san.check_buffer_write("ch", FakeQueue(set_slots=()), slot=3)
        assert san.checks["buffer-lifecycle"] == 1

    def test_reuse_of_unreleased_slot_fails(self, san):
        with pytest.raises(InvariantViolation) as exc:
            san.check_buffer_write("ch", FakeQueue(set_slots={3}), slot=3)
        assert exc.value.invariant == "buffer-lifecycle"


class TestClockAndWatermark:
    def test_monotone_clock_passes(self, san):
        san.note_clock_entry(1, "clk", 0, 1.0)
        san.note_clock_entry(1, "clk", 0, 1.0)
        san.note_clock_entry(1, "clk", 0, 2.0)
        san.note_clock_entry(1, "clk", 1, 0.5)  # other executor independent

    def test_regressing_clock_entry_fails(self, san):
        san.note_clock_entry(1, "clk", 0, 2.0)
        with pytest.raises(InvariantViolation) as exc:
            san.note_clock_entry(1, "clk", 0, 1.0)
        assert exc.value.invariant == "clock-monotonic"

    def test_regressing_watermark_fails(self, san):
        san.note_watermark(1, 0, 10.0)
        san.note_watermark(1, 0, 10.0)
        with pytest.raises(InvariantViolation) as exc:
            san.note_watermark(1, 0, 9.0)
        assert exc.value.invariant == "watermark-monotonic"


class TestLedgerExactlyOnce:
    def test_dense_fresh_sequence_passes(self, san):
        san.note_ledger_admit(1, _delta(0), fresh=True)
        san.note_ledger_admit(1, _delta(1), fresh=True)
        san.note_ledger_admit(1, _delta(1), fresh=False)  # dedupe is legal
        san.note_ledger_admit(1, _delta(2), fresh=True)

    def test_double_admission_fails(self, san):
        san.note_ledger_admit(1, _delta(0), fresh=True)
        san.note_ledger_admit(1, _delta(1), fresh=True)
        with pytest.raises(InvariantViolation, match="admitted twice|frontier"):
            san.note_ledger_admit(1, _delta(1), fresh=True)

    def test_skip_admission_fails(self, san):
        san.note_ledger_admit(1, _delta(0), fresh=True)
        with pytest.raises(InvariantViolation, match="skip"):
            san.note_ledger_admit(1, _delta(2), fresh=True)

    def test_fresh_delta_dropped_as_duplicate_fails(self, san):
        """The lost-update direction: rejecting a sequence-extending
        delta is as wrong as admitting a duplicate."""
        san.note_ledger_admit(1, _delta(0), fresh=True)
        with pytest.raises(InvariantViolation, match="lost update"):
            san.note_ledger_admit(1, _delta(1), fresh=False)

    def test_seed_installs_dedupe_floor(self, san):
        san.note_ledger_seed(1, "op", 0, 1, epoch=3)
        san.note_ledger_admit(1, _delta(3), fresh=False)  # replay dedupes
        san.note_ledger_admit(1, _delta(4), fresh=True)   # frontier resumes

    def test_ledgers_are_independent(self, san):
        san.note_ledger_admit(1, _delta(0), fresh=True)
        san.note_ledger_admit(2, _delta(0), fresh=True)  # other ledger


class TestWindowFire:
    def test_fire_at_or_behind_frontier_passes(self, san):
        san.check_window_fire(0, window_id=3, window_end=10.0, frontier=10.0)
        san.check_window_fire(0, window_id=4, window_end=10.0, frontier=12.0)

    def test_premature_fire_fails(self, san):
        with pytest.raises(InvariantViolation) as exc:
            san.check_window_fire(0, window_id=3, window_end=10.0, frontier=9.0)
        assert exc.value.invariant == "window-fire"
        assert "P1" in str(exc.value)


class TestViolationStructure:
    def test_violation_carries_time_context_and_trace(self):
        sim = FakeSim()
        sim.now = 1.25
        sim.tracer = Tracer(capacity=8)
        sim.tracer.emit(1.0, "chan", "post", slot=3)
        san = Sanitizer(sim)
        with pytest.raises(InvariantViolation) as exc:
            san.fail("event-time", "forced", detail=42)
        violation = exc.value
        assert violation.sim_time == 1.25
        assert violation.context == {"detail": 42}
        assert violation.trace_tail  # timeline tail attached
        rendered = violation.render()
        assert "[event-time]" in rendered and "detail=42" in rendered

    def test_check_counts_snapshot(self, san):
        san.note_event(1.0, 0.0)
        san.note_watermark(1, 0, 1.0)
        assert san.check_counts() == {"event-time": 1, "watermark-monotonic": 1}


class TestSnapshotConsistency:
    """The consistent-cut audit for completed Chandy-Lamport rounds."""

    @staticmethod
    def _round(channel_state, frontier=None, boundary=2):
        return dict(
            round_id=1,
            participants=[0, 1],
            boundaries={1: boundary},
            frontiers={0: frontier if frontier is not None else {}},
            channel_state=channel_state,
        )

    def test_exactly_bridged_cut_passes(self, san):
        # Receiver 0 froze its frontier at epoch 0; epochs 1..2 from
        # sender 1 were in flight and recorded as channel state.
        san.note_snapshot_round(**self._round(
            {(0, 1): [("op", 0, 1), ("op", 0, 2)]},
            frontier={("op", 0, 1): 0},
        ))
        assert san.checks["snapshot-consistency"] == 1

    def test_no_inflight_records_passes(self, san):
        # The frontier already reached the boundary: nothing in flight.
        san.note_snapshot_round(**self._round(
            {}, frontier={("op", 0, 1): 2},
        ))
        assert san.checks["snapshot-consistency"] == 1

    def test_post_marker_record_in_cut_fails(self, san):
        with pytest.raises(InvariantViolation, match="post-marker"):
            san.note_snapshot_round(**self._round(
                {(0, 1): [("op", 0, 1), ("op", 0, 2), ("op", 0, 3)]},
                frontier={("op", 0, 1): 0},
            ))

    def test_frontier_past_boundary_fails(self, san):
        with pytest.raises(InvariantViolation, match="leaked into"):
            san.note_snapshot_round(**self._round(
                {}, frontier={("op", 0, 1): 3},
            ))

    def test_lost_pre_marker_record_fails(self, san):
        with pytest.raises(InvariantViolation, match="lost from the cut"):
            san.note_snapshot_round(**self._round(
                {(0, 1): [("op", 0, 2)]},  # epoch 1 vanished
                frontier={("op", 0, 1): 0},
            ))

    def test_closed_channel_sender_is_skipped(self, san):
        # Sender 1 never shipped a marker (channel closed): no boundary,
        # nothing to audit, the round still counts as checked.
        san.note_snapshot_round(
            round_id=1, participants=[0, 1], boundaries={},
            frontiers={0: {("op", 0, 1): 5}}, channel_state={},
        )
        assert san.checks["snapshot-consistency"] == 1

    def test_aligned_round_with_no_leaks_passes(self, san):
        san.note_aligned_round(round_id=3, captures=4, post_marker_merges=0)
        assert san.checks["snapshot-consistency"] == 1

    def test_aligned_round_with_post_marker_merge_fails(self, san):
        with pytest.raises(InvariantViolation, match="alignment spill"):
            san.note_aligned_round(round_id=3, captures=4,
                                   post_marker_merges=2)


class TestBackpressureConservation:
    def _admit(self, san, offered, admitted, shed, *, batch, policy=True,
               queue=0):
        san.note_overload_admission(
            "exec0.t0", offered=offered, admitted=admitted, shed=shed,
            batch_offered=batch[0], batch_admitted=batch[1],
            batch_shed=batch[2], policy_active=policy, queue_depth=queue,
        )

    def test_balanced_books_pass(self, san):
        self._admit(san, 100, 90, 10, batch=(100, 90, 10))
        self._admit(san, 150, 120, 30, batch=(50, 30, 20))
        assert san.checks["backpressure-conservation"] == 2

    def test_batch_leak_fails(self, san):
        with pytest.raises(InvariantViolation, match="backpressure-conservation"):
            self._admit(san, 100, 90, 5, batch=(100, 90, 5))

    def test_shed_without_a_policy_fails(self, san):
        with pytest.raises(InvariantViolation, match="no shedding"):
            self._admit(san, 100, 90, 10, batch=(100, 90, 10), policy=False)

    def test_negative_queue_depth_fails(self, san):
        with pytest.raises(InvariantViolation, match="went negative"):
            self._admit(san, 100, 100, 0, batch=(100, 100, 0), queue=-1)

    def test_cumulative_regression_fails(self, san):
        self._admit(san, 100, 90, 10, batch=(100, 90, 10))
        with pytest.raises(InvariantViolation, match="backpressure-conservation"):
            self._admit(san, 90, 80, 10, batch=(0, 0, 0))

    def test_shadow_mismatch_fails(self, san):
        self._admit(san, 100, 90, 10, batch=(100, 90, 10))
        # Cumulative counters jump by more than the batch deltas claim.
        with pytest.raises(InvariantViolation, match="backpressure-conservation"):
            self._admit(san, 250, 240, 10, batch=(100, 100, 0))

    def test_sources_are_independent(self, san):
        self._admit(san, 100, 90, 10, batch=(100, 90, 10))
        san.note_overload_admission(
            "exec1.t0", offered=40, admitted=40, shed=0,
            batch_offered=40, batch_admitted=40, batch_shed=0,
            policy_active=False, queue_depth=0,
        )
        assert san.checks["backpressure-conservation"] == 2


class TestNoSilentDrop:
    def test_processed_equals_admitted_passes(self, san):
        san.check_no_silent_drop("exec0", 100, 90, 10, 90)
        assert san.checks["no-silent-drop"] == 1

    def test_unaccounted_offered_records_fail(self, san):
        with pytest.raises(InvariantViolation, match="no-silent-drop"):
            san.check_no_silent_drop("exec0", 100, 85, 10, 85)

    def test_silently_dropped_admitted_records_fail(self, san):
        with pytest.raises(InvariantViolation, match="no-silent-drop"):
            san.check_no_silent_drop("exec0", 100, 90, 10, 89)
