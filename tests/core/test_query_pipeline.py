"""Tests for the query builder and pipeline compilation."""

import numpy as np
import pytest

from repro.common.errors import QueryError
from repro.core.aggregations import partials_dict
from repro.core.pipeline import LEFT, RIGHT, compile_query
from repro.core.query import Query
from repro.core.records import Schema
from repro.core.windows import SessionWindows, TumblingWindow

SCHEMA = Schema("s", (("ts", "i8"), ("key", "i8"), ("v", "f8")), record_bytes=24)
OTHER = Schema("o", (("ts", "i8"), ("key", "i8")), record_bytes=16)


def agg_query():
    query = Query("q")
    (
        query.stream("s", SCHEMA)
        .filter(lambda b: b.col("v") > 0.5, selectivity=0.5)
        .project("ts", "key", "v")
        .aggregate(TumblingWindow(100), agg="sum", value_field="v")
    )
    return query


def join_query(window=None):
    query = Query("j")
    left = query.stream("s", SCHEMA)
    right = query.stream("o", OTHER)
    left.join(right, window or TumblingWindow(100))
    return query


def make_batch(n=8):
    return SCHEMA.batch_from_columns(
        ts=np.arange(n, dtype=np.int64) * 30,
        key=np.arange(n, dtype=np.int64) % 2,
        v=np.linspace(0, 1, n),
    )


class TestQueryBuilder:
    def test_aggregate_query_validates(self):
        agg_query().validate()

    def test_join_query_validates(self):
        join_query().validate()
        assert join_query().is_join

    def test_no_sink_rejected(self):
        query = Query("q")
        query.stream("s", SCHEMA)
        with pytest.raises(QueryError, match="no stateful sink"):
            query.validate()

    def test_no_stream_rejected(self):
        with pytest.raises(QueryError, match="no source"):
            Query("q").validate()

    def test_duplicate_stream_names(self):
        query = Query("q")
        query.stream("s", SCHEMA)
        with pytest.raises(QueryError, match="duplicate"):
            query.stream("s", SCHEMA)

    def test_three_streams_rejected(self):
        query = Query("q")
        query.stream("a", SCHEMA)
        query.stream("b", OTHER)
        with pytest.raises(QueryError, match="at most two"):
            query.stream("c", SCHEMA)

    def test_projection_must_keep_ts_and_key(self):
        query = Query("q")
        with pytest.raises(QueryError, match="retain"):
            query.stream("s", SCHEMA).project("ts", "v")

    def test_projection_unknown_field(self):
        query = Query("q")
        with pytest.raises(QueryError, match="unknown"):
            query.stream("s", SCHEMA).project("ts", "key", "zz")

    def test_bad_selectivity(self):
        query = Query("q")
        with pytest.raises(QueryError):
            query.stream("s", SCHEMA).filter(lambda b: b.keys > 0, selectivity=0)

    def test_unknown_aggregate(self):
        query = Query("q")
        stream = query.stream("s", SCHEMA)
        with pytest.raises(QueryError, match="unknown aggregate"):
            stream.aggregate(TumblingWindow(10), agg="median")

    def test_sum_needs_value(self):
        query = Query("q")
        stream = query.stream("s", SCHEMA)
        with pytest.raises(QueryError, match="value_field"):
            stream.aggregate(TumblingWindow(10), agg="sum")

    def test_session_aggregate_rejected(self):
        query = Query("q")
        stream = query.stream("s", SCHEMA)
        with pytest.raises(QueryError, match="session"):
            stream.aggregate(SessionWindows(10), agg="count")

    def test_self_join_rejected(self):
        query = Query("q")
        stream = query.stream("s", SCHEMA)
        with pytest.raises(QueryError, match="itself"):
            stream.join(stream, TumblingWindow(10))

    def test_cross_query_join_rejected(self):
        a = Query("a")
        b = Query("b")
        left = a.stream("s", SCHEMA)
        right = b.stream("o", OTHER)
        with pytest.raises(QueryError, match="same query"):
            left.join(right, TumblingWindow(10))

    def test_terminated_stream_rejects_more_ops(self):
        query = agg_query()
        with pytest.raises(QueryError, match="terminated"):
            query.streams[0].filter(lambda b: b.keys > 0)


def group_dict(result):
    """A batch result's groups as ``{state_key: partial}``."""
    return partials_dict(result.group_windows, result.group_keys, result.group_partials)


class TestCompiledPipelines:
    def test_aggregation_pipeline_filters_and_groups(self):
        plan = compile_query(agg_query())
        assert not plan.is_join
        result = plan.aggregation.process_batch(make_batch(8))
        # v > 0.5 keeps the last four values of linspace(0, 1, 8).
        assert result.survivors == 4
        assert result.max_timestamp == 7 * 30
        assert all(isinstance(k, tuple) for k in group_dict(result))

    def test_empty_after_filter(self):
        plan = compile_query(agg_query())
        batch = SCHEMA.batch_from_columns(
            ts=np.array([1]), key=np.array([1]), v=np.array([0.0])
        )
        result = plan.aggregation.process_batch(batch)
        assert result.survivors == 0
        assert result.group_keys is None
        assert result.max_timestamp == 1

    def test_join_pipeline_sides(self):
        plan = compile_query(join_query())
        assert plan.is_join
        left, right = plan.join_sides
        assert left.side == LEFT
        assert right.side == RIGHT
        result = left.process_batch(make_batch(4))
        for (win, key), entries in group_dict(result).items():
            for side, row in entries:
                assert side == LEFT
                assert isinstance(row, tuple)

    def test_session_join_partials_keyed_by_key(self):
        plan = compile_query(join_query(SessionWindows(50)))
        left, _right = plan.join_sides
        result = left.process_batch(make_batch(4))
        for key, entries in group_dict(result).items():
            assert isinstance(key, int)
            for ts, side, row in entries:
                assert isinstance(ts, float)

    def test_pipeline_for_dispatch(self):
        plan = compile_query(join_query())
        assert plan.pipeline_for("s").side == LEFT
        assert plan.pipeline_for("o").side == RIGHT
        with pytest.raises(QueryError):
            plan.pipeline_for("missing")

    def test_value_column_from_field_and_map(self):
        plan = compile_query(agg_query())
        chain = plan.aggregation.chain
        batch = make_batch(4)
        filtered = chain.apply(batch)
        values = chain.value_column(filtered, "v")
        assert len(values) == len(filtered)
