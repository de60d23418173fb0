"""The paper's self-developed Read-Only (RO) benchmark (Sec. 8.1.2).

A deliberately compute-light stateful query used for the I/O drill-down:
records carry only an 8-byte key and an 8-byte timestamp (16 B wire
size), and the operator simply counts per-key occurrences.  Keys come
from a uniform 100 M range, or Zipf for the skew sweep of Fig. 8d.

There is no windowing in the paper's description; we model that as a
single tumbling window spanning the whole stream, so the count
'window' triggers exactly once at end-of-stream.
"""

from __future__ import annotations

from repro.core.query import Query
from repro.core.records import Schema
from repro.core.windows import TumblingWindow
from repro.workloads.base import Flow, Workload
from repro.workloads.distributions import check_zipf_exponent, monotone_timestamps

RO_SCHEMA = Schema(
    name="ro_items",
    fields=(("ts", "i8"), ("key", "i8")),
    record_bytes=16,
)


class ReadOnlyWorkload(Workload):
    """RO: per-key occurrence count, no meaningful windowing."""

    name = "ro"

    def __init__(
        self,
        records_per_thread: int = 4096,
        batch_records: int = 512,
        seed: int = 7,
        span_ms: int | None = None,
        key_range: int = 100_000_000,
        zipf_z: float = 0.0,
    ):
        check_zipf_exponent(zipf_z)
        self.key_range = key_range
        self.zipf_z = zipf_z
        super().__init__(records_per_thread, batch_records, seed, span_ms)

    @property
    def default_span_ms(self) -> int:
        # One window covering the entire stream.
        return max(60_000, 2 * self.records_per_thread)

    def build_query(self) -> Query:
        query = Query("ro")
        (
            query.stream("items", RO_SCHEMA)
            .aggregate(TumblingWindow(self.span_ms), agg="count")
        )
        return query

    def _flow(self, node: int, thread: int) -> Flow:
        rng = self._generator("flow", node, thread)
        n = self.records_per_thread
        timestamps = monotone_timestamps(n, self.span_ms, rng)
        keys = self._zipf_table(self.key_range, self.zipf_z).draw(n, rng)
        return list(self._batches(RO_SCHEMA, "items", ts=timestamps, key=keys))
