"""Tests for watermark tracking and vector clocks."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import StateError
from repro.state.vector_clock import VectorClock, WatermarkTracker


class TestWatermarkTracker:
    def test_starts_at_minus_inf(self):
        assert WatermarkTracker(0).watermark == float("-inf")

    def test_advances_monotonically(self):
        tracker = WatermarkTracker(0)
        tracker.observe(10)
        tracker.observe(5)  # out-of-order record must not regress
        assert tracker.watermark == 10
        tracker.observe(20)
        assert tracker.watermark == 20


class TestVectorClock:
    def test_requires_executors(self):
        with pytest.raises(StateError):
            VectorClock([])

    def test_rejects_duplicates(self):
        with pytest.raises(StateError):
            VectorClock([1, 1])

    def test_advance_and_entry(self):
        clock = VectorClock([0, 1])
        clock.advance(0, 100)
        assert clock.entry(0) == 100
        assert clock.entry(1) == float("-inf")

    def test_advance_never_regresses(self):
        clock = VectorClock([0])
        clock.advance(0, 100)
        clock.advance(0, 50)
        assert clock.entry(0) == 100

    def test_unknown_executor_rejected(self):
        clock = VectorClock([0])
        with pytest.raises(StateError):
            clock.advance(3, 1)
        with pytest.raises(StateError):
            clock.entry(3)

    def test_min_watermark_is_frontier(self):
        clock = VectorClock([0, 1, 2])
        clock.advance(0, 100)
        clock.advance(1, 50)
        clock.advance(2, 75)
        assert clock.min_watermark() == 50

    def test_all_past_trigger_condition(self):
        """A window triggers only when every executor has passed its end."""
        clock = VectorClock([0, 1])
        clock.advance(0, 100)
        assert not clock.all_past(60)  # executor 1 still at -inf
        clock.advance(1, 59)
        assert not clock.all_past(60)
        clock.advance(1, 60)
        assert clock.all_past(60)

    def test_merge_elementwise_max(self):
        a = VectorClock([0, 1])
        b = VectorClock([0, 1])
        a.advance(0, 10)
        b.advance(0, 5)
        b.advance(1, 20)
        a.merge(b)
        assert a.entry(0) == 10
        assert a.entry(1) == 20

    def test_merge_different_groups_rejected(self):
        with pytest.raises(StateError):
            VectorClock([0, 1]).merge(VectorClock([0, 2]))

    def test_entries_move_only_through_advance(self):
        clock = VectorClock([0])
        assert clock.min_watermark() == float("-inf")
        clock.advance(0, 999)
        assert clock.entry(0) == 999
        assert clock.min_watermark() == 999

    @given(st.lists(st.tuples(st.integers(0, 3), st.floats(0, 1e6)), max_size=60))
    def test_property_min_watermark_never_exceeds_any_entry(self, advances):
        clock = VectorClock(range(4))
        for executor_id, watermark in advances:
            clock.advance(executor_id, watermark)
        frontier = clock.min_watermark()
        for executor_id in range(4):
            assert frontier <= clock.entry(executor_id)
