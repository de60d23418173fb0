"""Vector clocks and watermark tracking (paper Sec. 5.1, progress tracking).

Slash omits re-partitioning, so no single executor sees all records of a
key; window triggering must therefore coordinate.  Every executor tracks
the greatest event-time timestamp it has pushed into state (its
*watermark*).  Executors share watermarks — piggybacked on epoch delta
transfers (Sec. 7.2.2) — building a vector clock
``V = {l_1, ..., l_m}``.  A window ``[start, end)`` may trigger at an
executor only when *every* entry of the vector clock is ``>= end``: at
that point no executor can still contribute a record with a timestamp
inside the window (property *P1*).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.common.errors import StateError


class WatermarkTracker:
    """One executor's local watermark: the max event time observed."""

    def __init__(self, executor_id: int, sanitizer: Any = None):
        self.executor_id = executor_id
        self._watermark = float("-inf")
        self.sanitizer = sanitizer

    @property
    def watermark(self) -> float:
        """Greatest event-time timestamp seen so far (-inf initially)."""
        return self._watermark

    def observe(self, timestamp: float) -> None:
        """Advance the watermark with one record's event time."""
        if timestamp > self._watermark:
            self._watermark = timestamp
        if self.sanitizer is not None:
            self.sanitizer.note_watermark(id(self), self.executor_id, self._watermark)


class VectorClock:
    """The combined view of all executors' watermarks."""

    def __init__(self, executor_ids: Iterable[int], sanitizer: Any = None, name: str = ""):
        ids = list(executor_ids)
        if not ids:
            raise StateError("vector clock needs at least one executor")
        if len(set(ids)) != len(ids):
            raise StateError(f"duplicate executor ids: {ids}")
        self._entries: dict[int, float] = {e: float("-inf") for e in ids}
        self.sanitizer = sanitizer
        self.name = name

    @property
    def executor_ids(self) -> list[int]:
        """Executor ids tracked by this clock, sorted."""
        return sorted(self._entries)

    def entry(self, executor_id: int) -> float:
        """The last known watermark of ``executor_id``."""
        try:
            return self._entries[executor_id]
        except KeyError:
            raise StateError(f"unknown executor {executor_id}") from None

    def advance(self, executor_id: int, watermark: float) -> None:
        """Merge a newly-learned watermark; entries never move backwards."""
        if executor_id not in self._entries:
            raise StateError(f"unknown executor {executor_id}")
        if watermark > self._entries[executor_id]:
            self._entries[executor_id] = watermark
        if self.sanitizer is not None:
            self.sanitizer.note_clock_entry(
                id(self), self.name, executor_id, self._entries[executor_id]
            )

    def merge(self, other: "VectorClock") -> None:
        """Element-wise max with another clock over the same executors."""
        if set(other._entries) != set(self._entries):
            raise StateError("cannot merge vector clocks of different groups")
        for executor_id, watermark in other._entries.items():
            self.advance(executor_id, watermark)

    def min_watermark(self) -> float:
        """The frontier: the slowest executor's watermark."""
        return min(self._entries.values())

    def all_past(self, timestamp: float) -> bool:
        """True when every executor has progressed past ``timestamp``.

        This is the trigger condition: a window ending at ``timestamp``
        can safely fire because property P1 guarantees no executor will
        contribute an update with an event time below its own watermark.
        """
        return self.min_watermark() >= timestamp

    def __repr__(self) -> str:
        inner = ", ".join(f"{e}:{w:g}" for e, w in sorted(self._entries.items()))
        return f"VectorClock({inner})"
