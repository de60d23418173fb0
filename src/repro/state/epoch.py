"""The epoch-based coherence protocol's bookkeeping (paper Sec. 7.2.2).

An *epoch* is the span between two synchronisation points.  The paper
ends an epoch every 64 MB of ingested data, and additionally a window
trigger may end an epoch ahead of time.  At an epoch boundary every
helper ships the delta of each shared partition to that partition's
leader; the leader checks that epochs from one helper arrive densely (no
skips — 'state updates cannot skip each other') before merging.

:class:`EpochManager` is the helper-side trigger; :class:`EpochLedger`
is the leader-side order validator; :class:`EpochDelta` is the message
that travels (with the helper's watermark piggybacked, Sec. 7.2.2
'Properties').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Optional, Sequence

import numpy as np

from repro.common.config import DEFAULT_EPOCH_BYTES
from repro.common.errors import StateError
from repro.state.lss import distinct_windows


@dataclass(frozen=True, eq=False)
class EpochDelta:
    """One helper-to-leader state transfer for one partition.

    The state travels as the helper log's columns
    (:meth:`~repro.state.lss.LogStructuredStore.ship_delta`), row ``i``
    being state key ``keys[i]`` with window id ``key_windows[i]`` and
    partial ``payloads[i]``.  Deltas compare by identity.
    """

    operator_id: str
    partition: int
    from_executor: int
    epoch: int
    keys: Sequence[Hashable]
    #: int64, the window id of every key (``NO_WINDOW`` outside any window).
    key_windows: np.ndarray
    #: The partials: the payload column, of the shipping store's dtype.
    payloads: np.ndarray
    nbytes: int
    watermark: float
    #: The distinct window ids of the keys, ascending: what a receiver
    #: notes for triggering.  Derived from ``key_windows`` unless the
    #: sender already knows them.
    windows: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise StateError(f"negative epoch {self.epoch}")
        if self.nbytes < 0:
            raise StateError(f"negative delta size {self.nbytes}")
        if self.windows is None:
            object.__setattr__(self, "windows", tuple(distinct_windows(self.key_windows)))


class EpochManager:
    """Decides when an executor's epoch ends (byte threshold or forced)."""

    def __init__(self, epoch_bytes: int = DEFAULT_EPOCH_BYTES):
        if epoch_bytes <= 0:
            raise StateError(f"epoch_bytes must be positive, got {epoch_bytes}")
        self.epoch_bytes = epoch_bytes
        self._epoch = 0
        self._ingested_since_boundary = 0

    @property
    def current_epoch(self) -> int:
        """The epoch now being accumulated."""
        return self._epoch

    def offer(self, nbytes: int) -> bool:
        """Account ``nbytes`` of ingested data; True if the epoch ended.

        When True, the caller must run the synchronisation phase and the
        accumulator restarts for the next epoch.
        """
        if nbytes < 0:
            raise StateError(f"negative ingest size {nbytes}")
        self._ingested_since_boundary += nbytes
        if self._ingested_since_boundary >= self.epoch_bytes:
            self._advance()
            return True
        return False

    def force(self) -> int:
        """End the epoch ahead of time (window-trigger signal, Sec. 7.2.2).

        Returns the epoch that just closed.
        """
        closed = self._epoch
        self._advance()
        return closed

    def _advance(self) -> None:
        self._epoch += 1
        self._ingested_since_boundary = 0


class EpochLedger:
    """Leader-side validation that helper deltas arrive in dense order.

    The ledger is also the system's exactly-once filter: a re-delivered
    delta (retransmission after a fault, or a replay during recovery) is
    *deduplicated*, not treated as corruption, so CRDT merges stay
    exactly-once no matter how many times a delta crosses the wire.
    """

    def __init__(self, sanitizer: Any = None, name: str = ""):
        self._last_seen: dict[tuple[str, int, int], int] = {}
        #: Optional repro.sanitizer Sanitizer: seed() reports admission
        #: floors so the shadow exactly-once account survives restores.
        self.sanitizer = sanitizer
        self.name = name

    def admit(self, delta: EpochDelta) -> bool:
        """Validate ordering for ``delta``; returns whether it is *fresh*.

        ``True`` means the caller must merge the delta (it advances the
        dense per-helper sequence).  ``False`` means the exact delta was
        already admitted — a duplicate from retransmission or recovery
        replay — and the caller must drop it without merging.  A *skip*
        (an epoch arriving more than one ahead) still raises: updates
        cannot overtake each other on a FIFO channel, so a gap is a bug
        or data loss, never something to paper over.
        """
        key = (delta.operator_id, delta.partition, delta.from_executor)
        last = self._last_seen.get(key)
        if last is not None and delta.epoch <= last:
            return False
        if last is not None and delta.epoch != last + 1:
            raise StateError(
                f"epoch skip from executor {delta.from_executor} on "
                f"partition {delta.partition}: {delta.epoch} after {last}"
            )
        self._last_seen[key] = delta.epoch
        return True

    def last_epoch(self, operator_id: str, partition: int, helper: int) -> int:
        """Last admitted epoch for a (partition, helper) pair (-1 if none)."""
        return self._last_seen.get((operator_id, partition, helper), -1)

    def seed(self, operator_id: str, partition: int, helper: int, epoch: int) -> None:
        """Install a known admission point (checkpoint restore).

        A promoted leader seeds its ledger from the crashed leader's
        checkpoint so that replayed deltas at or below ``epoch`` dedupe
        and the dense-sequence check resumes from the right place.
        Seeding never moves an entry backwards.
        """
        key = (operator_id, partition, helper)
        if epoch > self._last_seen.get(key, -1):
            self._last_seen[key] = epoch
        if self.sanitizer is not None:
            self.sanitizer.note_ledger_seed(id(self), operator_id, partition, helper, epoch)

    def snapshot(self) -> dict[tuple[str, int, int], int]:
        """A copy of the admission frontier (checkpoint payload)."""
        return dict(self._last_seen)
