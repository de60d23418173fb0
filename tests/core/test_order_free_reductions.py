"""Reductions that cannot see the order of their values skip the stable sort.

A count needs only the sorted keys, so
:func:`repro.core.aggregations.group_reduce` sorts a count's batch without
keeping arrival order inside a group, and the transfer benches' count fold
sorts each message's keys by value and merges the sorted runs; a float sum
can see the order (rounding), so it keeps the stable sort.  Every case here must
equal, bit for bit and dtype for dtype, the stable-argsort reduction kept
below — the construction every batch used before.  The batches are seeded
(``REPRO_TEST_SEED``), in one window and across several.
"""

import numpy as np
import pytest

from repro.baselines.transfer import _CountRuns
from repro.core.aggregations import group_reduce
from repro.state.crdt import crdt_by_name


def stable_reference(crdt, window_ids, keys, values):
    """Group columns and partials through a stable sort by (window, key)."""
    if (window_ids == window_ids[0]).all():
        order = np.argsort(keys, kind="stable")
    else:
        order = np.lexsort((keys, window_ids))
    sorted_windows, sorted_keys = window_ids[order], keys[order]
    change = np.ones(len(keys) + 1, dtype=bool)
    change[1:-1] = (sorted_keys[1:] != sorted_keys[:-1]) | (
        sorted_windows[1:] != sorted_windows[:-1]
    )
    bounds = np.flatnonzero(change)
    starts = bounds[:-1]
    column = crdt.column
    if column.reduce is None:
        partials = np.diff(bounds)
    else:
        sorted_values = np.asarray(values, dtype=column.dtype)[order]
        partials = column.reduce.reduceat(sorted_values, starts)
    return sorted_windows[starts], sorted_keys[starts], partials


def batch(rng, shape, n=4000, key_range=40):
    """A batch whose float values make every group's sum order-sensitive."""
    if shape == "one-window":
        window_ids = np.full(n, 3, dtype=np.int64)
    else:
        window_ids = rng.integers(0, 4, size=n)
    keys = rng.integers(0, key_range, size=n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 17, size=n)
    return window_ids, keys, values


def assert_columns_equal(got, expected):
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        assert g.tobytes() == e.tobytes()


CRDTS = {
    "count": crdt_by_name("count"),
    "float-sum": crdt_by_name("sum"),
}


@pytest.mark.parametrize("shape", ["one-window", "windows"])
@pytest.mark.parametrize("name", sorted(CRDTS))
def test_group_reduce_equals_the_stable_reference(rng, name, shape):
    crdt = CRDTS[name]
    for n in (1, 7, 500, 4000):
        window_ids, keys, values = batch(rng, shape, n=n)
        expected = stable_reference(crdt, window_ids, keys, values)
        got = group_reduce(crdt, window_ids, keys, None if name == "count" else values)
        assert_columns_equal(got, expected)


def test_a_float_sum_keeps_arrival_order(rng):
    """One window, the only shape that sorts by argsort: the batch is
    order-sensitive (an unstable sort changes some group's sum), and the
    reduction still equals the stable reference."""
    crdt = crdt_by_name("sum")
    window_ids, keys, values = batch(rng, "one-window")
    unstable = np.argsort(keys, kind="quicksort")
    stable = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(keys[stable]) != 0])
    assert not np.array_equal(
        np.add.reduceat(values[unstable], starts), np.add.reduceat(values[stable], starts)
    )
    got = group_reduce(crdt, window_ids, keys, values)
    assert_columns_equal(got, stable_reference(crdt, window_ids, keys, values))


@pytest.mark.parametrize("fold_rows", [8, 64])
@pytest.mark.parametrize("shape", ["one-window", "windows"])
def test_deferred_merge_equals_the_stable_reference(rng, monkeypatch, fold_rows, shape):
    """The transfer benches' count fold, sorting each message by value and
    merging the staged runs mid-stream, ends in the stable reference's
    groups and counts."""
    monkeypatch.setattr(_CountRuns, "FOLD_ROWS", fold_rows)
    crdt = crdt_by_name("count")
    runs = _CountRuns()
    all_windows, all_keys = [], []
    for _ in range(40):
        window_ids, keys, _values = batch(rng, shape, n=int(rng.integers(1, 300)),
                                          key_range=120)
        runs.stage(window_ids, keys)
        all_windows.append(window_ids)
        all_keys.append(keys)
    state: dict = {}
    runs.fold_into(state)
    windows, keys = np.concatenate(all_windows), np.concatenate(all_keys)
    group_windows, group_keys, counts = stable_reference(crdt, windows, keys, None)
    expected = dict(zip(zip(group_windows.tolist(), group_keys.tolist()), counts.tolist()))
    assert list(state.items()) == list(expected.items())
