"""The streaming query builder — the library's main public API.

A query is a small DAG: one or two sources, each followed by a fused
chain of stateless operators (filter, project), terminating in exactly
one stateful sink — a windowed aggregation or a windowed join.  This
covers every workload of the paper's evaluation (YSB, CM, NB7, NB8,
NB11, RO) and is the fragment all four engines execute.

Example (the YSB query)::

    query = (
        Query("ysb")
        .stream("events", YSB_SCHEMA)
        .filter(lambda batch: batch.col("event_type") == 2)
        .project("ts", "key")
        .aggregate(TumblingWindow(600_000), agg="count")
    )

Stateless transforms take and return :class:`~repro.core.records.RecordBatch`
(filters return boolean masks), keeping user code vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.common.errors import QueryError
from repro.core.records import RecordBatch, Schema
from repro.core.windows import SessionWindows, WindowAssigner
from repro.state.crdt import Crdt, crdt_by_name

FilterFn = Callable[[RecordBatch], np.ndarray]

AGGREGATES = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class FilterOp:
    """Keep only records where ``predicate(batch)`` is True."""

    predicate: FilterFn
    # Estimated selectivity, used only by cost-model pre-sizing.
    selectivity: float = 1.0


@dataclass(frozen=True)
class ProjectOp:
    """Narrow the batch to ``fields`` (must include ts and key)."""

    fields: tuple[str, ...]


@dataclass(frozen=True)
class MapValueOp:
    """Compute the aggregation value column from the batch."""

    fn: Callable[[RecordBatch], np.ndarray]
    name: str = "value"


@dataclass(frozen=True)
class AggregateSpec:
    """Terminal windowed aggregation."""

    window: WindowAssigner
    agg: str
    value_field: Optional[str]

    @property
    def crdt(self) -> Crdt:
        return crdt_by_name(self.agg)


@dataclass(frozen=True)
class JoinSpec:
    """Terminal windowed equi-join of the two streams on ``key``."""

    window: WindowAssigner


class StreamBuilder:
    """A fluent chain of stateless operators on one source stream.

    ``disorder_ms`` declares the stream's bounded event-time disorder:
    a record may arrive at most that many milliseconds after a
    later-timestamped record of the same physical flow.  The paper's
    data model assumes strictly monotone timestamps (``disorder_ms=0``);
    engines subtract the bound from observed maxima when computing
    watermarks, which keeps properties P1/P2 intact for disorderly
    sources (a standard bounded-out-of-orderness watermark).
    """

    def __init__(self, query: "Query", name: str, schema: Schema, disorder_ms: int = 0):
        if disorder_ms < 0:
            raise QueryError(f"disorder_ms must be >= 0, got {disorder_ms}")
        #: The owning query until a terminal operator returns it: a
        #: terminated stream lets go, since the query holds its streams.
        self.query: Optional[Query] = query
        self.name = name
        self.schema = schema
        self.disorder_ms = disorder_ms
        self.ops: list[Any] = []

    def filter(self, predicate: FilterFn, selectivity: float = 1.0) -> "StreamBuilder":
        """Append a vectorised filter (predicate returns a boolean mask)."""
        self._check_open()
        if not 0.0 < selectivity <= 1.0:
            raise QueryError(f"selectivity must be in (0, 1], got {selectivity}")
        self.ops.append(FilterOp(predicate, selectivity))
        return self

    def project(self, *fields: str) -> "StreamBuilder":
        """Append a projection to ``fields``."""
        self._check_open()
        for required in ("ts", "key"):
            if required not in fields:
                raise QueryError(f"projection must retain {required!r}")
        unknown = set(fields) - set(self.schema.field_names)
        if unknown:
            raise QueryError(f"projection of unknown fields {sorted(unknown)}")
        self.ops.append(ProjectOp(tuple(fields)))
        return self

    def map_value(self, fn: Callable[[RecordBatch], np.ndarray]) -> "StreamBuilder":
        """Define the value column later consumed by sum/min/max/avg."""
        self._check_open()
        self.ops.append(MapValueOp(fn))
        return self

    def aggregate(
        self,
        window: WindowAssigner,
        agg: str,
        value_field: Optional[str] = None,
    ) -> "Query":
        """Terminate with a per-key windowed aggregation."""
        self._check_open()
        if agg not in AGGREGATES:
            raise QueryError(f"unknown aggregate {agg!r}; choose from {AGGREGATES}")
        if agg != "count" and value_field is None and not self._has_map_value():
            raise QueryError(f"aggregate {agg!r} needs value_field or map_value")
        if isinstance(window, SessionWindows):
            raise QueryError("session windows are only supported for joins")
        query, self.query = self.query, None
        query._set_aggregate(self, AggregateSpec(window, agg, value_field))
        return query

    def join(self, other: "StreamBuilder", window: WindowAssigner) -> "Query":
        """Terminate with a windowed equi-join against ``other`` on key."""
        self._check_open()
        other._check_open()
        if other.query is not self.query:
            raise QueryError("joined streams must belong to the same query")
        if other is self:
            raise QueryError("cannot join a stream with itself")
        query = self.query
        self.query = other.query = None
        query._set_join(self, other, JoinSpec(window))
        return query

    def _has_map_value(self) -> bool:
        return any(isinstance(op, MapValueOp) for op in self.ops)

    def _check_open(self) -> None:
        if self.query is None:
            raise QueryError(f"stream {self.name!r} already terminated")


class Query:
    """A named streaming query: sources, fused chains, one stateful sink."""

    def __init__(self, name: str):
        self.name = name
        self.streams: list[StreamBuilder] = []
        self.aggregate_spec: Optional[AggregateSpec] = None
        self.agg_stream: Optional[StreamBuilder] = None
        self.join_spec: Optional[JoinSpec] = None
        self.join_left: Optional[StreamBuilder] = None
        self.join_right: Optional[StreamBuilder] = None

    def stream(self, name: str, schema: Schema, disorder_ms: int = 0) -> StreamBuilder:
        """Declare a source stream (see :class:`StreamBuilder` for
        ``disorder_ms``)."""
        if self._terminal is not None:
            raise QueryError(f"query {self.name!r} already has a stateful sink")
        if any(s.name == name for s in self.streams):
            raise QueryError(f"duplicate stream name {name!r}")
        if len(self.streams) >= 2:
            raise QueryError("at most two source streams are supported")
        builder = StreamBuilder(self, name, schema, disorder_ms=disorder_ms)
        self.streams.append(builder)
        return builder

    # -- internals used by StreamBuilder ----------------------------------
    def _set_aggregate(self, stream: StreamBuilder, spec: AggregateSpec) -> None:
        if self._terminal is not None:
            raise QueryError(f"query {self.name!r} already terminated")
        self.aggregate_spec = spec
        self.agg_stream = stream

    def _set_join(self, left: StreamBuilder, right: StreamBuilder, spec: JoinSpec) -> None:
        if self._terminal is not None:
            raise QueryError(f"query {self.name!r} already terminated")
        self.join_spec = spec
        self.join_left = left
        self.join_right = right

    # -- validation ----------------------------------------------------------
    @property
    def _terminal(self) -> Optional[object]:
        return self.aggregate_spec or self.join_spec

    @property
    def is_join(self) -> bool:
        return self.join_spec is not None

    def validate(self) -> None:
        """Check the query is well-formed; raises :class:`QueryError`."""
        if not self.streams:
            raise QueryError(f"query {self.name!r} has no source stream")
        if self._terminal is None:
            raise QueryError(f"query {self.name!r} has no stateful sink")
        if self.is_join and len(self.streams) != 2:
            raise QueryError("a join query needs exactly two streams")
        if not self.is_join and len(self.streams) != 1:
            raise QueryError("an aggregation query needs exactly one stream")

    def __repr__(self) -> str:
        kind = "join" if self.is_join else "aggregate" if self.aggregate_spec else "open"
        return f"Query({self.name!r}, {kind}, streams={[s.name for s in self.streams]})"
