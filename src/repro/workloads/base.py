"""The workload protocol shared by every benchmark generator.

A :class:`Workload` couples a query with a deterministic data generator.
``flows(nodes, threads_per_node)`` returns, for every worker, the
event-time-ordered list of ``(stream_name, RecordBatch)`` items that
worker ingests — the weak-scaling shape of the paper's end-to-end
methodology (each thread processes its own fixed-size partition;
partitions are non-disjoint in keys, Sec. 8.2.2).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.errors import ConfigError
from repro.common.rng import RngTree
from repro.core.query import Query
from repro.core.records import RecordBatch, Schema
from repro.workloads.distributions import ZipfTable

Flow = list[tuple[str, RecordBatch]]


class Workload:
    """Base class: subclasses implement ``build_query`` and ``_flow``."""

    name = "abstract"

    def __init__(
        self,
        records_per_thread: int = 4096,
        batch_records: int = 512,
        seed: int = 7,
        span_ms: int | None = None,
    ):
        if records_per_thread <= 0:
            raise ConfigError("records_per_thread must be positive")
        if batch_records <= 0:
            raise ConfigError("batch_records must be positive")
        self.records_per_thread = records_per_thread
        self.batch_records = batch_records
        self.rng = RngTree(seed).child(self.name)
        self._span_ms = span_ms
        self._flow_cache: dict[tuple[int, int], Flow] = {}
        #: Zipf tables of the generation call in progress; empty otherwise.
        self._zipf_tables: dict[tuple[int, float], ZipfTable] = {}

    # -- to implement -------------------------------------------------------
    def build_query(self) -> Query:
        """The streaming query this workload executes."""
        raise NotImplementedError

    @property
    def default_span_ms(self) -> int:
        """Event-time span every flow covers (aligns windows cluster-wide)."""
        raise NotImplementedError

    def _flow(self, node: int, thread: int) -> Flow:
        """Generate one worker's flow."""
        raise NotImplementedError

    # -- provided --------------------------------------------------------------
    @property
    def span_ms(self) -> int:
        return self._span_ms if self._span_ms is not None else self.default_span_ms

    def flows(self, nodes: int, threads_per_node: int) -> dict[tuple[int, int], Flow]:
        """All workers' flows for an ``nodes x threads_per_node`` deployment."""
        if nodes <= 0 or threads_per_node <= 0:
            raise ConfigError("nodes and threads_per_node must be positive")
        return self._generate(
            [(node, thread) for node in range(nodes) for thread in range(threads_per_node)]
        )

    def _generate(self, workers: list[tuple[int, int]]) -> dict[tuple[int, int], Flow]:
        """``workers``' flows, generating the missing ones under one table scope.

        The Zipf tables the generated flows share live exactly as long as
        this call: a 1 M-rank table is 16 MB, and one retained past the
        call that needed it shows up as peak RSS for the rest of the
        process (``docs/performance.md``, "The determinism contract").
        """
        cache = self._flow_cache
        try:
            for worker in workers:
                if worker not in cache:
                    cache[worker] = self._flow(*worker)
        finally:
            self._zipf_tables.clear()
        return {worker: cache[worker] for worker in workers}

    # -- helpers for subclasses ----------------------------------------------------
    def _generator(self, *names) -> np.random.Generator:
        return self.rng.generator(*names)

    def _zipf_table(self, key_range: int, z: float) -> ZipfTable:
        """The Zipf(z) sampler every flow of this generation call shares.

        Built at the first skewed flow the call generates, from the
        workload's ``"zipf-map"`` stream, and dropped when the call
        returns; a call served from the flow cache builds none.
        """
        table = self._zipf_tables.get((key_range, z))
        if table is None:
            table = self._zipf_tables[key_range, z] = ZipfTable(
                key_range, z, self._generator("zipf-map")
            )
        return table

    def _batches(self, schema: Schema, stream: str, **columns: np.ndarray) -> Iterator[tuple[str, RecordBatch]]:
        """Cut column arrays into read-only (stream, batch) items of batch_records."""
        total = len(next(iter(columns.values())))
        for start in range(0, total, self.batch_records):
            end = min(start + self.batch_records, total)
            sliced = {name: col[start:end] for name, col in columns.items()}
            batch = schema.batch_from_columns(**sliced)
            # Cells share generated inputs; an in-place write would leak
            # from one cell into the next.
            batch.data.flags.writeable = False
            yield stream, batch
