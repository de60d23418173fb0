"""Edge cases of the epoch ledger and vector clock the protocol leans on.

These pin the behaviours the recovery path and the channel layer assume:
a retransmitted delta after a channel reset dedupes instead of raising,
an epoch *skip* raises instead of deduping, and clock comparisons at
exactly-equal components resolve the way the trigger condition (``>=``)
requires.
"""

import numpy as np
import pytest

from repro.common.errors import StateError
from repro.state.epoch import EpochDelta, EpochLedger, EpochManager
from repro.state.lss import window_column
from repro.state.vector_clock import VectorClock, WatermarkTracker


def _delta(epoch: int, partition: int = 0, helper: int = 1, watermark: float = 0.0):
    return EpochDelta(
        operator_id="op",
        partition=partition,
        from_executor=helper,
        epoch=epoch,
        keys=[f"k{epoch}"],
        key_windows=window_column([f"k{epoch}"]),
        payloads=np.ones(1),
        nbytes=64,
        watermark=watermark,
    )


class TestLedgerDedupe:
    def test_duplicate_redelivery_after_channel_reset(self):
        """A flapping channel retransmits unacked deltas; the ledger must
        dedupe every re-delivery and then resume the dense sequence."""
        ledger = EpochLedger()
        assert ledger.admit(_delta(0)) is True
        assert ledger.admit(_delta(1)) is True
        # NIC flap: the producer replays everything past its last ack.
        assert ledger.admit(_delta(0)) is False
        assert ledger.admit(_delta(1)) is False
        assert ledger.admit(_delta(1)) is False  # idempotent re-re-delivery
        # The sequence continues where it left off.
        assert ledger.admit(_delta(2)) is True
        assert ledger.last_epoch("op", 0, 1) == 2

    def test_out_of_order_epoch_arrival_raises(self):
        """A skip can only mean loss or reordering on a FIFO channel."""
        ledger = EpochLedger()
        assert ledger.admit(_delta(0)) is True
        with pytest.raises(StateError, match="skip"):
            ledger.admit(_delta(2))

    def test_first_epoch_must_not_skip_zero_floor(self):
        """With a seeded floor, the next admission must be dense."""
        ledger = EpochLedger()
        ledger.seed("op", 0, 1, epoch=4)
        assert ledger.admit(_delta(4)) is False  # replayed at the floor
        assert ledger.admit(_delta(5)) is True
        with pytest.raises(StateError, match="skip"):
            ledger.admit(_delta(7))

    def test_seed_never_moves_backwards(self):
        ledger = EpochLedger()
        ledger.seed("op", 0, 1, epoch=5)
        ledger.seed("op", 0, 1, epoch=3)
        assert ledger.last_epoch("op", 0, 1) == 5
        assert ledger.admit(_delta(5)) is False

    def test_streams_are_independent_per_helper_and_partition(self):
        ledger = EpochLedger()
        assert ledger.admit(_delta(0, partition=0, helper=1)) is True
        assert ledger.admit(_delta(0, partition=1, helper=1)) is True
        assert ledger.admit(_delta(0, partition=0, helper=2)) is True
        # Independent sequences: a dup on one stream leaves the others dense.
        assert ledger.admit(_delta(0, partition=0, helper=1)) is False
        assert ledger.admit(_delta(1, partition=1, helper=1)) is True


class TestEpochManagerEdges:
    def test_force_mid_epoch_then_threshold(self):
        manager = EpochManager(epoch_bytes=100)
        assert manager.offer(40) is False
        assert manager.force() == 0
        assert manager.offer(99) is False
        assert manager.offer(1) is True
        assert manager.current_epoch == 2

    def test_negative_ingest_rejected(self):
        with pytest.raises(StateError):
            EpochManager(epoch_bytes=100).offer(-1)


class TestClockEqualComponents:
    def test_all_past_is_inclusive_at_equality(self):
        """The trigger condition is >=: a window ending exactly at the
        frontier may fire (no executor can contribute t < its own
        watermark, and a record at exactly t=end is outside [start, end))."""
        clock = VectorClock([0, 1])
        clock.advance(0, 10.0)
        clock.advance(1, 10.0)
        assert clock.min_watermark() == 10.0
        assert clock.all_past(10.0) is True
        assert clock.all_past(10.000001) is False

    def test_equal_advance_is_a_no_op(self):
        clock = VectorClock([0, 1])
        clock.advance(0, 5.0)
        clock.advance(0, 5.0)
        assert clock.entry(0) == 5.0
        # A lower value never regresses the entry either.
        clock.advance(0, 4.0)
        assert clock.entry(0) == 5.0

    def test_merge_with_equal_components_keeps_maximum(self):
        a = VectorClock([0, 1])
        b = VectorClock([0, 1])
        a.advance(0, 3.0)
        a.advance(1, 7.0)
        b.advance(0, 3.0)
        b.advance(1, 2.0)
        a.merge(b)
        assert (a.entry(0), a.entry(1)) == (3.0, 7.0)
        assert a.min_watermark() == 3.0

    def test_frontier_tracks_slowest_executor(self):
        clock = VectorClock([0, 1, 2])
        clock.advance(0, 100.0)
        clock.advance(1, 50.0)
        assert clock.min_watermark() == float("-inf")  # executor 2 silent
        clock.advance(2, 50.0)
        assert clock.min_watermark() == 50.0


class TestWatermarkTrackerEdges:
    def test_stale_observation_does_not_regress(self):
        tracker = WatermarkTracker(executor_id=0)
        tracker.observe(10.0)
        tracker.observe(4.0)
        assert tracker.watermark == 10.0
