"""The Cluster Monitoring (CM) benchmark.

The paper streams the Google cluster trace (12.5 K nodes) and computes,
per 2-second tumbling window, the mean CPU utilisation of each job
(Sec. 8.1.2).  The trace itself is not redistributable, so — per the
substitution policy in DESIGN.md — we generate a synthetic trace with
the same record shape (64 B, 8 B job key, 8 B timestamp, CPU sample)
and the trace's salient key statistics: a heavy-tailed job-size
distribution (few giant jobs emit most task events) modelled as Zipf.
"""

from __future__ import annotations

from repro.core.query import Query
from repro.core.records import Schema
from repro.core.windows import TumblingWindow
from repro.workloads.base import Flow, Workload
from repro.workloads.distributions import check_zipf_exponent, monotone_timestamps

CM_SCHEMA = Schema(
    name="cm_tasks",
    fields=(("ts", "i8"), ("key", "i8"), ("cpu", "f8")),
    record_bytes=64,
)

WINDOW_MS = 2_000  # the 2-second tumbling window


class ClusterMonitoringWorkload(Workload):
    """CM: 2 s tumbling mean CPU per job over a synthetic Google trace."""

    name = "cm"

    def __init__(
        self,
        records_per_thread: int = 4096,
        batch_records: int = 512,
        seed: int = 7,
        span_ms: int | None = None,
        jobs: int = 100_000,
        job_skew: float = 1.1,
        windows: int = 4,
    ):
        check_zipf_exponent(job_skew)
        self.jobs = jobs
        self.job_skew = job_skew
        self.windows = windows
        super().__init__(records_per_thread, batch_records, seed, span_ms)

    @property
    def default_span_ms(self) -> int:
        return self.windows * WINDOW_MS

    def build_query(self) -> Query:
        query = Query("cm")
        (
            query.stream("tasks", CM_SCHEMA)
            .project("ts", "key", "cpu")
            .aggregate(TumblingWindow(WINDOW_MS), agg="avg", value_field="cpu")
        )
        return query

    def _flow(self, node: int, thread: int) -> Flow:
        rng = self._generator("flow", node, thread)
        n = self.records_per_thread
        timestamps = monotone_timestamps(n, self.span_ms, rng)
        keys = self._zipf_table(self.jobs, self.job_skew).draw(n, rng)
        cpu = rng.uniform(0.0, 1.0, size=n)
        return list(
            self._batches(CM_SCHEMA, "tasks", ts=timestamps, key=keys, cpu=cpu)
        )
