"""Vectorised per-batch partial aggregation — the eager half of late merge.

A Slash worker never updates global state one record at a time in Python;
it first reduces the batch to one partial payload per distinct
``(window_id, key)`` group using numpy segment operations, then absorbs
those partials into the SSB with the CRDT merge.  This mirrors how the
real engine's compiled pipelines fold a whole buffer before touching
shared cache lines — and it is also exactly the *late merge* shape: eager
local partials, lazy merging.

Cost accounting is unaffected: engines charge per-record costs from the
batch length, not from the number of Python-level operations.
"""

from __future__ import annotations

from typing import Any, Hashable

import numpy as np

from repro.common.errors import QueryError
from repro.state.crdt import Crdt

GroupPartials = dict[tuple[int, int], Any]


def segments(window_ids: np.ndarray, keys: np.ndarray, kind: str | None = "stable"):
    """Sort by (window, key) and return segment boundaries.

    Returns ``(order, bounds, group_windows, group_keys)``: group ``g``
    is sorted positions ``bounds[g]:bounds[g + 1]`` (see
    :func:`run_bounds`).

    ``kind`` is the argsort kind of a one-window batch.  ``"stable"``
    keeps arrival order inside each group, which a reduction that can see
    the order of its values needs (float sums, avg, append logs); a fold
    of integer counts gives one result in any order and may pass
    ``"quicksort"``.  ``None`` asks for no order at all (``order`` is
    None): a count needs only the sorted keys, so a one-window batch is
    sorted by value.  A batch of several windows is always ordered by one
    stable lexsort.
    """
    single_window = len(window_ids) > 0 and (window_ids == window_ids[0]).all()
    if not single_window:
        order = np.lexsort((keys, window_ids))
        sorted_windows = window_ids[order]
        sorted_keys = keys[order]
        bounds = run_bounds(sorted_keys, sorted_windows)
        starts = bounds[:-1]
        return order, bounds, sorted_windows[starts], sorted_keys[starts]
    # One window in the batch (RO's whole-stream window, or a batch that
    # never straddles a boundary): a single-key sort, measurably cheaper
    # than the lexsort.
    if kind is None:
        order = None
        sorted_keys = np.sort(keys)
    else:
        order = np.argsort(keys, kind=kind)
        sorted_keys = keys[order]
    bounds = run_bounds(sorted_keys)
    group_windows = np.full(len(bounds) - 1, window_ids[0], dtype=window_ids.dtype)
    return order, bounds, group_windows, sorted_keys[bounds[:-1]]


def run_bounds(
    sorted_keys: np.ndarray, sorted_windows: np.ndarray | None = None
) -> np.ndarray:
    """Run boundaries of equal ``(window, key)`` in sorted columns: run
    ``g`` is rows ``bounds[g]:bounds[g + 1]``, and the last bound is the
    column length.  ``sorted_windows`` None means one window throughout."""
    n = len(sorted_keys)
    change = np.empty(n + 1, dtype=bool)
    change[0] = change[n] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=change[1:n])
    if sorted_windows is not None:
        change[1:n] |= sorted_windows[1:] != sorted_windows[:-1]
    return np.flatnonzero(change)


def group_reduce(
    crdt: Crdt,
    window_ids: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Reduce one batch to its CRDT's payload column, one partial per group.

    Returns ``(group_windows, group_keys, partials)`` columns sorted by
    ``(window, key)``, or ``None`` when the CRDT declares no
    :class:`~repro.state.crdt.PayloadColumn` (avg's ``(sum, count)``
    pairs, append logs).  The reduction is the column's declared ufunc,
    or the group's row count when it declares none.
    """
    if len(window_ids) != len(keys):
        raise QueryError("window_ids and keys must align")
    column = crdt.column
    if column is None:
        return None
    if len(window_ids) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    if column.reduce is None:
        _, bounds, group_windows, group_keys = segments(window_ids, keys, None)
        return group_windows, group_keys, np.diff(bounds)
    if values is None:
        raise QueryError(f"{crdt.name} aggregation needs a value column")
    order, bounds, group_windows, group_keys = segments(window_ids, keys)
    sorted_values = np.asarray(values, dtype=column.dtype)[order]
    return group_windows, group_keys, column.reduce.reduceat(sorted_values, bounds[:-1])


def partial_columns(
    crdt: Crdt,
    window_ids: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | list]:
    """:func:`group_reduce` for every aggregation CRDT.

    Avg, which has no payload column, gets its partials as a list of
    ``(sum, count)`` tuples next to the same two group columns.
    """
    reduced = group_reduce(crdt, window_ids, keys, values)
    if reduced is not None:
        return reduced
    if crdt.name != "avg":
        raise QueryError(f"no vectorised kernel for CRDT {crdt.name!r}")
    if values is None:
        raise QueryError("avg aggregation needs a value column")
    order, bounds, group_windows, group_keys = segments(window_ids, keys)
    counts = np.diff(bounds)
    sorted_values = np.asarray(values, dtype=np.float64)[order]
    sums = np.add.reduceat(sorted_values, bounds[:-1])
    return group_windows, group_keys, list(zip(sums.tolist(), counts.tolist()))


def partials_dict(
    group_windows: np.ndarray | None,
    group_keys: np.ndarray,
    partials: np.ndarray | list,
) -> dict[Any, Any]:
    """``{state_key: partial}`` from group columns, all plain Python.

    State keys are ``(window_id, key)`` tuples, or bare keys when
    ``group_windows`` is None (session state).  ``.tolist()`` converts
    whole columns in C, several times faster than per-element casts.
    """
    state_keys = group_keys.tolist()
    if group_windows is not None:
        state_keys = zip(group_windows.tolist(), state_keys)
    if isinstance(partials, np.ndarray):
        partials = partials.tolist()
    return dict(zip(state_keys, partials))


def partial_aggregate(
    crdt: Crdt,
    window_ids: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray | None,
) -> GroupPartials:
    """Reduce one batch to ``{(window_id, key): partial_payload}``.

    The partial payload is in the CRDT's own representation, ready to be
    ``absorb``-ed (merged) into a store.  ``values`` may be None for
    value-less aggregates (count).
    """
    if len(window_ids) == 0:
        if len(window_ids) != len(keys):
            raise QueryError("window_ids and keys must align")
        return {}
    return partials_dict(*partial_columns(crdt, window_ids, keys, values))


def _scalar(value: Any) -> Any:
    """Convert a numpy scalar to a plain Python number."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def sequential_aggregate(
    crdt: Crdt,
    window_ids: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray | None,
) -> GroupPartials:
    """Scalar reference implementation of :func:`partial_aggregate`.

    Used by tests to validate the vectorised kernels and by the
    sequential reference executor.
    """
    partials: GroupPartials = {}
    for i in range(len(window_ids)):
        group = (int(window_ids[i]), int(keys[i]))
        value = 1 if values is None else _scalar(values[i])
        if group in partials:
            partials[group] = crdt.update(partials[group], value)
        else:
            partials[group] = crdt.update(crdt.zero(), value)
    return partials
