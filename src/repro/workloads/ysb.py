"""The Yahoo! Streaming Benchmark (YSB).

Per the paper (Sec. 8.1.2): 78-byte records with an 8-byte key and an
8-byte creation timestamp; the query is a filter (keep 'view' events,
one of three types), a projection, and a 10-minute event-time tumbling
count per campaign key.  Keys are drawn uniformly from a wide range
(10 M in the paper; configurable here), or from Zipf for the skew
drill-down of Fig. 8d.
"""

from __future__ import annotations

from repro.core.query import Query
from repro.core.records import Schema
from repro.core.windows import TumblingWindow
from repro.workloads.base import Flow, Workload
import numpy as np

from repro.workloads.distributions import check_zipf_exponent, monotone_timestamps

YSB_SCHEMA = Schema(
    name="ysb_events",
    fields=(("ts", "i8"), ("key", "i8"), ("event_type", "i8")),
    record_bytes=78,
)

#: Event types; the query keeps only views, 1 in 3 of the stream.
EVENT_VIEW = 2
WINDOW_MS = 10 * 60 * 1000  # the 10-minute tumbling count window


class YsbWorkload(Workload):
    """YSB: filter -> project -> 10 m tumbling per-key count."""

    name = "ysb"

    def __init__(
        self,
        records_per_thread: int = 4096,
        batch_records: int = 512,
        seed: int = 7,
        span_ms: int | None = None,
        key_range: int = 10_000_000,
        zipf_z: float = 0.0,
        windows: int = 4,
        disorder_ms: int = 0,
    ):
        check_zipf_exponent(zipf_z)
        self.key_range = key_range
        self.zipf_z = zipf_z
        self.windows = windows
        self.disorder_ms = disorder_ms
        super().__init__(records_per_thread, batch_records, seed, span_ms)

    @property
    def default_span_ms(self) -> int:
        return self.windows * WINDOW_MS

    def build_query(self) -> Query:
        query = Query("ysb")
        (
            query.stream("events", YSB_SCHEMA, disorder_ms=self.disorder_ms)
            .filter(lambda batch: batch.col("event_type") == EVENT_VIEW, selectivity=1 / 3)
            .project("ts", "key")
            .aggregate(TumblingWindow(WINDOW_MS), agg="count")
        )
        return query

    def _flow(self, node: int, thread: int) -> Flow:
        rng = self._generator("flow", node, thread)
        n = self.records_per_thread
        timestamps = monotone_timestamps(n, self.span_ms, rng)
        if self.disorder_ms > 0:
            # Bounded out-of-orderness: pulling each timestamp back by a
            # bounded jitter lets a record trail a later-stamped one by
            # at most disorder_ms, matching the query's declared bound.
            jitter = rng.integers(0, self.disorder_ms + 1, size=n)
            timestamps = np.maximum(timestamps - jitter, 0)
        keys = self._zipf_table(self.key_range, self.zipf_z).draw(n, rng)
        event_types = rng.integers(0, 3, size=n)
        return list(
            self._batches(
                YSB_SCHEMA, "events", ts=timestamps, key=keys, event_type=event_types
            )
        )
