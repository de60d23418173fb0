"""Window trigger bookkeeping driven by the vector clock (paper Sec. 5.1).

The executor notes every window (or slice) id that state updates touch —
both its own updates and the pairs arriving in epoch deltas.  After each
synchronisation it asks :class:`WindowTriggerState` which windows are
*due*: their event-time end lies at or below the vector clock's frontier,
so property P1 guarantees no further contribution can arrive.

Joins on session windows have no static ids; their trigger logic lives
with the join probe (:mod:`repro.core.join`) and only uses the frontier.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.windows import SlidingWindow, WindowAssigner


class WindowTriggerState:
    """Tracks pending window ids and decides what is due."""

    def __init__(self, assigner: WindowAssigner):
        self.assigner = assigner
        self._pending: set[int] = set()
        self._fired: set[int] = set()

    @property
    def pending(self) -> set[int]:
        """Window ids awaiting their trigger, as a copy-safe view."""
        return set(self._pending)

    def note_slices(self, slice_ids: Iterable[int]) -> None:
        """Register the slice/bucket ids a state update touched."""
        assigner = self.assigner
        if isinstance(assigner, SlidingWindow):
            for slice_id in slice_ids:
                for window_id in assigner.windows_of_slice(int(slice_id)):
                    if window_id not in self._fired:
                        self._pending.add(window_id)
        else:
            for slice_id in slice_ids:
                window_id = int(slice_id)
                if window_id not in self._fired:
                    self._pending.add(window_id)

    def restore_pending(self, window_ids: Iterable[int]) -> None:
        """Force windows back to pending, even if already fired here.

        Crash recovery re-installs state for windows a promoted leader may
        have fired for its own partitions; those must trigger again so the
        adopted keys' results are emitted.  A re-fire only extracts the
        re-installed keys (a previous fire removed everything else), so
        earlier emissions are never recomputed.
        """
        for window_id in window_ids:
            window_id = int(window_id)
            self._fired.discard(window_id)
            self._pending.add(window_id)

    def due_windows(self, frontier: float) -> list[int]:
        """Pop and return (ascending) every pending window that may fire.

        A window is due when its end timestamp is ``<= frontier`` — the
        vector clock's minimum watermark at the caller.
        """
        due = sorted(
            window_id
            for window_id in self._pending
            if self.assigner.window_end(window_id) <= frontier
        )
        for window_id in due:
            self._pending.discard(window_id)
            self._fired.add(window_id)
        return due
