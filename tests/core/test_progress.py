"""Tests for window trigger bookkeeping."""

from repro.core.progress import WindowTriggerState
from repro.core.windows import SlidingWindow, TumblingWindow


class TestTumblingTrigger:
    def test_window_due_when_frontier_passes_end(self):
        trigger = WindowTriggerState(TumblingWindow(100))
        trigger.note_slices([0, 1])
        assert trigger.due_windows(99) == []
        assert trigger.due_windows(100) == [0]
        assert trigger.due_windows(250) == [1]

    def test_window_fires_once(self):
        trigger = WindowTriggerState(TumblingWindow(100))
        trigger.note_slices([0])
        assert trigger.due_windows(1000) == [0]
        trigger.note_slices([0])  # late re-note must not re-arm
        assert trigger.due_windows(2000) == []

    def test_due_windows_sorted(self):
        trigger = WindowTriggerState(TumblingWindow(10))
        trigger.note_slices([5, 1, 3])
        assert trigger.due_windows(1000) == [1, 3, 5]

    def test_pending_view_is_copy(self):
        trigger = WindowTriggerState(TumblingWindow(10))
        trigger.note_slices([1])
        view = trigger.pending
        view.clear()
        assert trigger.pending == {1}

    def test_infinite_frontier_drains(self):
        trigger = WindowTriggerState(TumblingWindow(10))
        trigger.note_slices(range(5))
        assert trigger.due_windows(float("inf")) == [0, 1, 2, 3, 4]
        assert trigger.pending == set()


class TestSlidingTrigger:
    def test_slice_arms_covering_windows(self):
        window = SlidingWindow(100, 50)  # 2 slices per window
        trigger = WindowTriggerState(window)
        trigger.note_slices([3])
        # Slice 3 belongs to windows 2 and 3.
        assert trigger.pending == {2, 3}

    def test_window_end_condition(self):
        window = SlidingWindow(100, 50)
        trigger = WindowTriggerState(window)
        trigger.note_slices([0])
        # Window 0 covers slices 0-1, ends at 100; window -1 ends at 50.
        assert trigger.due_windows(50) == [-1]
        assert trigger.due_windows(100) == [0]
