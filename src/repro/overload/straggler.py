"""Gray-failure detection: per-executor service-time EWMAs.

A slow node (thermal throttling, a noisy neighbour, a jittered link)
keeps heartbeating, so the phi-accrual failure detector never fires —
the only observable is that the node's *service time per record* drifts
away from its peers'.  :class:`StragglerDetector` keeps one
exponentially-weighted moving average per executor and flags an executor
as a straggler once its EWMA exceeds ``ratio`` x the cluster median.

Pure bookkeeping, no simulation dependencies — unit-testable without
running a workload.
"""

from __future__ import annotations

import statistics
from typing import Optional


class StragglerDetector:
    """Flags executors whose per-record service time drifts off-median."""

    def __init__(
        self,
        alpha: float = 0.2,
        ratio: float = 2.0,
        min_samples: int = 5,
    ):
        self.alpha = alpha
        self.ratio = ratio
        self.min_samples = min_samples
        self._ewma: dict[int, float] = {}
        self._samples: dict[int, int] = {}
        #: Executors flagged at least once, with the sample index of the
        #: first flag (diagnostics for the harness report).
        self.flagged_at: dict[int, int] = {}
        self._observations = 0

    def note(self, executor_id: int, service_s: float, records: int) -> None:
        """Fold one batch's service time into the executor's EWMA."""
        if records <= 0 or service_s < 0:
            return
        per_record = service_s / records
        self._observations += 1
        prev = self._ewma.get(executor_id)
        if prev is None:
            self._ewma[executor_id] = per_record
        else:
            self._ewma[executor_id] = (
                self.alpha * per_record + (1.0 - self.alpha) * prev
            )
        self._samples[executor_id] = self._samples.get(executor_id, 0) + 1
        if self.is_straggler(executor_id):
            self.flagged_at.setdefault(executor_id, self._observations)

    def cluster_median(self) -> Optional[float]:
        """Median EWMA over executors with enough samples."""
        mature = [
            value for executor_id, value in self._ewma.items()
            if self._samples.get(executor_id, 0) >= self.min_samples
        ]
        if len(mature) < 2:
            return None  # a 1-node "cluster" has no peers to drift from
        return statistics.median(mature)

    def is_straggler(self, executor_id: int) -> bool:
        """Whether the executor is currently flagged as a straggler."""
        if self._samples.get(executor_id, 0) < self.min_samples:
            return False
        median = self.cluster_median()
        if median is None or median <= 0:
            return False
        value = self._ewma.get(executor_id)
        return value is not None and value > self.ratio * median

    def stragglers(self) -> list[int]:
        """Currently-flagged executor ids, ascending."""
        return sorted(
            executor_id for executor_id in self._ewma
            if self.is_straggler(executor_id)
        )

    def report(self) -> dict:
        """Snapshot for the harness report."""
        return {
            "ewma_per_record_s": dict(sorted(self._ewma.items())),
            "stragglers": self.stragglers(),
            "ever_flagged": sorted(self.flagged_at),
        }
