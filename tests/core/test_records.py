"""Tests for schemas and record batches."""

import numpy as np
import pytest

from repro.common.errors import QueryError
from repro.core.records import RecordBatch, Schema

SCHEMA = Schema("s", (("ts", "i8"), ("key", "i8"), ("v", "f8")), record_bytes=24)


def make_batch(n=5):
    return SCHEMA.batch_from_columns(
        ts=np.arange(n, dtype=np.int64),
        key=np.arange(n, dtype=np.int64) % 3,
        v=np.linspace(0, 1, n),
    )


class TestSchema:
    def test_requires_ts_and_key(self):
        with pytest.raises(QueryError, match="ts"):
            Schema("x", (("key", "i8"),), 8)
        with pytest.raises(QueryError, match="key"):
            Schema("x", (("ts", "i8"),), 8)

    def test_rejects_duplicate_fields(self):
        with pytest.raises(QueryError, match="duplicate"):
            Schema("x", (("ts", "i8"), ("key", "i8"), ("ts", "f8")), 8)

    def test_rejects_bad_record_bytes(self):
        with pytest.raises(QueryError):
            Schema("x", (("ts", "i8"), ("key", "i8")), 0)

    def test_dtype_and_names(self):
        assert SCHEMA.field_names == ("ts", "key", "v")
        assert SCHEMA.dtype.names == ("ts", "key", "v")

    def test_dtype_is_built_once_per_schema(self):
        from repro.runtime.scenario import WORKLOADS

        schemas = {
            stream.schema
            for cls, presets in WORKLOADS.values()
            for stream in cls(**presets).build_query().streams
        }
        assert len(schemas) >= len(WORKLOADS) - 1
        for schema in schemas:
            assert schema.dtype is schema.dtype
            assert schema.field_names is schema.field_names
            assert schema.dtype == np.dtype(list(schema.fields))
            assert schema.field_names == tuple(name for name, _ in schema.fields)

    def test_derived_attributes_stay_out_of_equality(self):
        twin = Schema(SCHEMA.name, SCHEMA.fields, SCHEMA.record_bytes)
        assert twin == SCHEMA and hash(twin) == hash(SCHEMA)
        assert "dtype" not in repr(SCHEMA)

    def test_empty_batch(self):
        assert len(RecordBatch(SCHEMA, np.empty(0, dtype=SCHEMA.dtype))) == 0

    def test_batch_from_columns_missing(self):
        with pytest.raises(QueryError, match="missing"):
            SCHEMA.batch_from_columns(ts=np.array([1]), key=np.array([2]))

    def test_batch_from_columns_ragged(self):
        with pytest.raises(QueryError, match="ragged"):
            SCHEMA.batch_from_columns(
                ts=np.array([1]), key=np.array([2]), v=np.array([1.0, 2.0])
            )


class TestRecordBatch:
    def test_len_and_columns(self):
        batch = make_batch(5)
        assert len(batch) == 5
        assert list(batch.keys) == [0, 1, 2, 0, 1]
        assert list(batch.timestamps) == [0, 1, 2, 3, 4]

    def test_unknown_column(self):
        with pytest.raises(QueryError):
            make_batch().col("nope")

    def test_wire_bytes(self):
        assert make_batch(5).wire_bytes == 5 * 24

    def test_max_timestamp(self):
        assert make_batch(5).max_timestamp == 4
        empty = RecordBatch(SCHEMA, np.empty(0, dtype=SCHEMA.dtype))
        assert empty.max_timestamp == float("-inf")

    def test_select_mask(self):
        batch = make_batch(5)
        selected = batch.select(batch.keys == 0)
        assert len(selected) == 2
        assert list(selected.timestamps) == [0, 3]

    def test_take_indices(self):
        batch = make_batch(5)
        taken = batch.take(np.array([4, 0]))
        assert list(taken.timestamps) == [4, 0]

    def test_dtype_mismatch_rejected(self):
        other = np.zeros(3, dtype=[("ts", "i8"), ("key", "i8")])
        with pytest.raises(QueryError):
            RecordBatch(SCHEMA, other)

    def test_row_tuples_are_plain_python(self):
        rows = make_batch(2).row_tuples()
        assert rows[0][:2] == (0, 0)
        assert all(type(row) is tuple for row in rows)
        # Plain scalars, not numpy ones: rows are hashed, sorted and
        # compared against the sequential reference's.
        assert {type(value) for row in rows for value in row} <= {int, float}
