"""Tests for the vectorised partial-aggregation kernels.

The key property: every vectorised kernel must agree exactly with the
scalar reference fold, for any batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import QueryError
from repro.core.aggregations import (
    group_reduce,
    partial_aggregate,
    partials_dict,
    sequential_aggregate,
)
from repro.core.pipeline import LEFT, compile_query
from repro.core.query import Query
from repro.core.records import Schema
from repro.core.windows import TumblingWindow
from repro.state.crdt import crdt_by_name

batches = st.integers(1, 60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),   # windows
        st.lists(st.integers(0, 6), min_size=n, max_size=n),   # keys
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=n, max_size=n
        ),
    )
)


def arrays(data):
    wins, keys, values = data
    return (
        np.array(wins, dtype=np.int64),
        np.array(keys, dtype=np.int64),
        np.array(values, dtype=np.float64),
    )


class TestPartialAggregate:
    def test_count(self):
        wins = np.array([0, 0, 0, 1])
        keys = np.array([7, 7, 8, 7])
        partials = partial_aggregate(crdt_by_name("count"), wins, keys, None)
        assert partials == {(0, 7): 2, (0, 8): 1, (1, 7): 1}

    def test_sum(self):
        wins = np.array([0, 0])
        keys = np.array([1, 1])
        values = np.array([2.5, 3.5])
        partials = partial_aggregate(crdt_by_name("sum"), wins, keys, values)
        assert partials == {(0, 1): 6.0}

    def test_min_max(self):
        wins = np.zeros(3, dtype=np.int64)
        keys = np.zeros(3, dtype=np.int64)
        values = np.array([3.0, 1.0, 2.0])
        assert partial_aggregate(crdt_by_name("min"), wins, keys, values) == {(0, 0): 1.0}
        assert partial_aggregate(crdt_by_name("max"), wins, keys, values) == {(0, 0): 3.0}

    def test_avg_pairs(self):
        wins = np.zeros(4, dtype=np.int64)
        keys = np.array([1, 1, 2, 2])
        values = np.array([1.0, 3.0, 10.0, 20.0])
        partials = partial_aggregate(crdt_by_name("avg"), wins, keys, values)
        assert partials == {(0, 1): (4.0, 2), (0, 2): (30.0, 2)}

    def test_empty_batch(self):
        empty = np.empty(0, dtype=np.int64)
        assert partial_aggregate(crdt_by_name("count"), empty, empty, None) == {}

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(QueryError):
            partial_aggregate(
                crdt_by_name("count"), np.zeros(2, np.int64), np.zeros(3, np.int64), None
            )

    def test_value_required_for_sum(self):
        wins = np.zeros(1, dtype=np.int64)
        with pytest.raises(QueryError, match="value column"):
            partial_aggregate(crdt_by_name("sum"), wins, wins, None)

    def test_append_has_no_kernel(self):
        wins = np.zeros(1, dtype=np.int64)
        with pytest.raises(QueryError, match="kernel"):
            partial_aggregate(crdt_by_name("append"), wins, wins, None)

    def test_results_are_plain_python(self):
        wins = np.zeros(1, dtype=np.int64)
        keys = np.zeros(1, dtype=np.int64)
        partials = partial_aggregate(crdt_by_name("count"), wins, keys, None)
        ((win, key), count) = next(iter(partials.items()))
        assert type(win) is int and type(key) is int
        assert isinstance(count, int)

    @pytest.mark.parametrize("agg", ["count", "sum", "min", "max", "avg"])
    @settings(max_examples=40, deadline=None)
    @given(data=batches)
    def test_property_matches_scalar_reference(self, agg, data):
        wins, keys, values = arrays(data)
        crdt = crdt_by_name(agg)
        vec = partial_aggregate(crdt, wins, keys, None if agg == "count" else values)
        ref = sequential_aggregate(crdt, wins, keys, None if agg == "count" else values)
        assert set(vec) == set(ref)
        for group in ref:
            assert vec[group] == pytest.approx(ref[group])


BUILD = Schema("b", (("ts", "i8"), ("key", "i8"), ("row", "i8")), record_bytes=24)
PROBE = Schema("p", (("ts", "i8"), ("key", "i8")), record_bytes=16)


def rows_by_group(wins, keys):
    """The join build side's groups as ``{(window, key): rows}``.

    Row ``i`` of the batch lies in tumbling window ``wins[i]`` and carries
    ``i`` in its ``row`` field; every group's partial must be a tuple of
    ``(LEFT, row_tuple)`` entries.
    """
    query = Query("j")
    query.stream("b", BUILD).join(query.stream("p", PROBE), TumblingWindow(100))
    build, _probe = compile_query(query).join_sides
    batch = BUILD.batch_from_columns(
        ts=wins * 100, key=keys, row=np.arange(len(wins), dtype=np.int64)
    )
    groups = {}
    result = build.process_batch(batch)
    if not result.survivors:
        return groups
    for group, entries in partials_dict(
        result.group_windows, result.group_keys, result.group_partials
    ).items():
        assert type(entries) is tuple
        assert all(side == LEFT for side, _row in entries)
        groups[group] = [row[2] for _side, row in entries]
    return groups


class TestGroupRows:
    """The join build groups a batch's rows by ``(window, key)``."""

    def test_groups_and_order(self):
        wins = np.array([0, 1, 0, 1])
        keys = np.array([5, 5, 5, 6])
        groups = rows_by_group(wins, keys)
        assert list(groups) == [(0, 5), (1, 5), (1, 6)]
        assert list(groups[(0, 5)]) == [0, 2]
        assert list(groups[(1, 6)]) == [3]

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert rows_by_group(empty, empty) == {}

    @settings(max_examples=30, deadline=None)
    @given(data=batches)
    def test_property_groups_partition_rows(self, data):
        wins, keys, _values = arrays(data)
        groups = rows_by_group(wins, keys)
        all_rows = sorted(i for idx in groups.values() for i in idx)
        assert all_rows == list(range(len(wins)))
        for (win, key), indices in groups.items():
            assert all(wins[i] == win and keys[i] == key for i in indices)
            assert indices == sorted(indices)  # batch order within a group
        assert list(groups) == sorted(groups)


class TestGroupReduce:
    """The array form must carry exactly the dict kernel's groups."""

    @pytest.mark.parametrize("agg", ["count", "sum", "min", "max"])
    @settings(max_examples=40, deadline=None)
    @given(data=batches)
    def test_columns_match_partial_aggregate(self, agg, data):
        wins, keys, values = arrays(data)
        crdt = crdt_by_name(agg)
        vals = None if agg == "count" else values
        reduced = group_reduce(crdt, wins, keys, vals)
        assert reduced is not None
        group_windows, group_keys, partials = reduced
        rebuilt = dict(
            zip(
                zip(group_windows.tolist(), group_keys.tolist()),
                partials.tolist(),
            )
        )
        assert rebuilt == partial_aggregate(crdt, wins, keys, vals)

    def test_avg_and_append_take_the_dict_path(self):
        wins = np.zeros(2, dtype=np.int64)
        values = np.ones(2, dtype=np.float64)
        assert group_reduce(crdt_by_name("avg"), wins, wins, values) is None
        assert group_reduce(crdt_by_name("append"), wins, wins, None) is None

    def test_empty_batch_yields_empty_columns(self):
        empty = np.empty(0, dtype=np.int64)
        group_windows, group_keys, partials = group_reduce(
            crdt_by_name("count"), empty, empty, None
        )
        assert len(group_windows) == len(group_keys) == len(partials) == 0
