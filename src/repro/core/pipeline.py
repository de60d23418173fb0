"""Operator fusion: queries compile to pipelines (paper Sec. 5, Fig. 2).

A :class:`CompiledChain` fuses a stream's stateless operators into one
per-batch function.  The chain terminates at a *soft pipeline breaker* —
the stateful window update — realised by :class:`AggregationPipeline` or
:class:`JoinBuildPipeline`, which reduce the surviving records of a batch
to per-group partial payloads ready for the SSB.

The compiled objects are engine-agnostic: Slash, RDMA UpPar, the
Flink-like baseline, and LightSaber all execute the same compiled
pipelines and differ only in *where* the state lives and *how* partials
are merged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Optional

import numpy as np

from repro.common.errors import QueryError
from repro.core.aggregations import partial_columns, segments
from repro.core.query import (
    AggregateSpec,
    FilterOp,
    JoinSpec,
    MapValueOp,
    ProjectOp,
    Query,
    StreamBuilder,
)
from repro.core.records import RecordBatch
from repro.core.windows import SessionWindows
from repro.state.crdt import AppendLogCrdt, Crdt


class CompiledChain:
    """The fused stateless prefix of one stream."""

    def __init__(self, stream: StreamBuilder):
        self.stream_name = stream.name
        self.schema = stream.schema
        self._filters = [op for op in stream.ops if isinstance(op, FilterOp)]
        self._value_op = next(
            (op for op in stream.ops if isinstance(op, MapValueOp)), None
        )
        projections = [op for op in stream.ops if isinstance(op, ProjectOp)]
        self.projected_fields = projections[-1].fields if projections else None
        self.op_count = len(stream.ops)

    def apply(self, batch: RecordBatch) -> RecordBatch:
        """Run all fused filters over ``batch`` (vectorised)."""
        for op in self._filters:
            mask = op.predicate(batch)
            batch = batch.select(np.asarray(mask, dtype=bool))
        return batch

    def value_column(self, batch: RecordBatch, value_field: Optional[str]) -> Optional[np.ndarray]:
        """The aggregation value column of a (filtered) batch."""
        if self._value_op is not None:
            return np.asarray(self._value_op.fn(batch))
        if value_field is not None:
            return batch.col(value_field)
        return None


class BatchResult:
    """What the stateful breaker produced for one input batch.

    The batch's groups travel as columns sorted by ``(window, key)``:
    ``group_windows`` (None for session state, keyed by bare group key),
    ``group_keys`` and ``group_partials`` — the CRDT's payload column, or
    a list of Python payloads for a CRDT that declares none.  Every
    simulated engine absorbs them into its store as they are
    (``LogStructuredStore.absorb_columns``); the sequential reference
    folds them into a dict (``partials_dict``).
    """

    __slots__ = (
        "survivors",
        "max_timestamp",
        "state_bytes",
        "group_windows",
        "group_keys",
        "group_partials",
    )

    def __init__(
        self,
        survivors: int,
        max_timestamp: float,
        state_bytes: int,
        group_windows: Optional[np.ndarray] = None,
        group_keys: Optional[np.ndarray] = None,
        group_partials: Optional[np.ndarray | list] = None,
    ):
        self.survivors = survivors
        self.max_timestamp = max_timestamp
        self.state_bytes = state_bytes
        self.group_windows = group_windows
        self.group_keys = group_keys
        self.group_partials = group_partials


class AggregationPipeline:
    """Chain + windowed aggregation breaker (YSB, CM, NB7, RO)."""

    def __init__(self, query: Query):
        query.validate()
        if query.is_join:
            raise QueryError("query terminates in a join, not an aggregation")
        assert query.aggregate_spec is not None and query.agg_stream is not None
        self.query = query
        self.spec: AggregateSpec = query.aggregate_spec
        self.chain = CompiledChain(query.agg_stream)
        self.crdt: Crdt = self.spec.crdt
        self.operator_id = f"{query.name}.agg"

    def process_batch(self, batch: RecordBatch) -> BatchResult:
        """Filter, assign windows, and reduce to per-group partials."""
        return self.reduce(self.chain.apply(batch), batch.max_timestamp)

    def reduce(self, filtered: RecordBatch, max_timestamp: float) -> BatchResult:
        """Assign windows to the chain's survivors and reduce them to
        per-group partials; ``max_timestamp`` is the input batch's."""
        if len(filtered) == 0:
            return BatchResult(0, max_timestamp, 0)
        window_ids = self.spec.window.assign(filtered.timestamps)
        values = self.chain.value_column(filtered, self.spec.value_field)
        group_windows, group_keys, group_partials = partial_columns(
            self.crdt, window_ids, filtered.keys, values
        )
        # Resident bytes per distinct group: hash-index bucket share plus
        # log entry header/key plus the payload (FASTER-style layout).
        per_group_bytes = 64 + self.crdt.payload_bytes
        return BatchResult(
            len(filtered),
            max_timestamp,
            len(group_keys) * per_group_bytes,
            group_windows,
            group_keys,
            group_partials,
        )


# Side tags stored in join payload entries.
LEFT, RIGHT = 0, 1


class JoinBuildPipeline:
    """Chain + hash-join build breaker for one side of a join (NB8, NB11).

    Every surviving record is appended to the per-``(window, key)`` (or
    per-``key`` for session windows) state as a ``(side, row_tuple)``
    entry (``(ts, side, row_tuple)`` for sessions); a batch's partial for
    one group is the tuple of its entries in batch order.  Probing happens
    at trigger time on merged state.
    """

    def __init__(self, query: Query, side: int):
        query.validate()
        if not query.is_join:
            raise QueryError("query terminates in an aggregation, not a join")
        assert query.join_spec is not None
        self.query = query
        self.spec: JoinSpec = query.join_spec
        self.side = side
        stream = query.join_left if side == LEFT else query.join_right
        assert stream is not None
        self.chain = CompiledChain(stream)
        self.operator_id = f"{query.name}.join"
        self.crdt = AppendLogCrdt(record_bytes=stream.schema.record_bytes)

    def process_batch(self, batch: RecordBatch) -> BatchResult:
        """Filter, group, and emit append partials for the build side."""
        return self.reduce(self.chain.apply(batch), batch.max_timestamp)

    def reduce(self, filtered: RecordBatch, max_timestamp: float) -> BatchResult:
        """Group the chain's survivors into append partials;
        ``max_timestamp`` is the input batch's."""
        if len(filtered) == 0:
            return BatchResult(0, max_timestamp, 0)
        window = self.spec.window
        session = isinstance(window, SessionWindows)
        # Session state is keyed by the bare key: one window for the sort.
        window_ids = (
            np.zeros(len(filtered), dtype=np.int64)
            if session
            else window.assign(filtered.timestamps)
        )
        order, bounds, group_windows, group_keys = segments(window_ids, filtered.keys)
        # Every entry is built in C, in group order, and each group's
        # partial is one slice of them.
        ordered = filtered.take(order)
        rows = ordered.row_tuples()
        if session:
            # Session records keep their ts.
            group_windows = None
            timestamps = ordered.timestamps.astype(np.float64).tolist()
            entries = tuple(zip(timestamps, repeat(self.side), rows))
        else:
            entries = tuple(zip(repeat(self.side), rows))
        edges = bounds.tolist()
        partials = list(map(entries.__getitem__, map(slice, edges, edges[1:])))
        state_bytes = len(filtered) * self.chain.schema.record_bytes
        return BatchResult(
            len(filtered),
            max_timestamp,
            state_bytes,
            group_windows,
            group_keys,
            partials,
        )


@dataclass
class PhysicalPlan:
    """Everything an engine needs to execute one query."""

    query: Query
    aggregation: Optional[AggregationPipeline]
    join_sides: Optional[tuple[JoinBuildPipeline, JoinBuildPipeline]]

    @property
    def is_join(self) -> bool:
        return self.join_sides is not None

    @property
    def operator_id(self) -> str:
        if self.aggregation is not None:
            return self.aggregation.operator_id
        assert self.join_sides is not None
        return self.join_sides[0].operator_id

    @property
    def crdt(self) -> Crdt:
        if self.aggregation is not None:
            return self.aggregation.crdt
        assert self.join_sides is not None
        return self.join_sides[0].crdt

    @property
    def window(self):
        if self.aggregation is not None:
            return self.aggregation.spec.window
        assert self.join_sides is not None
        return self.join_sides[0].spec.window

    def pipeline_for(self, stream_name: str):
        """The pipeline consuming ``stream_name``."""
        if self.aggregation is not None:
            if stream_name != self.aggregation.chain.stream_name:
                raise QueryError(f"query has no stream {stream_name!r}")
            return self.aggregation
        assert self.join_sides is not None
        for side in self.join_sides:
            if side.chain.stream_name == stream_name:
                return side
        raise QueryError(f"query has no stream {stream_name!r}")


def compile_query(query: Query) -> PhysicalPlan:
    """Compile a validated query into its physical plan."""
    query.validate()
    if query.is_join:
        return PhysicalPlan(
            query,
            aggregation=None,
            join_sides=(JoinBuildPipeline(query, LEFT), JoinBuildPipeline(query, RIGHT)),
        )
    return PhysicalPlan(query, aggregation=AggregationPipeline(query), join_sides=None)
