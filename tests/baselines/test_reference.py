"""Tests for the sequential reference executor."""

import numpy as np
import pytest

from repro.baselines.reference import SequentialReference
from repro.core.query import Query
from repro.core.records import Schema
from repro.core.windows import SlidingWindow, TumblingWindow
from repro.workloads.distributions import monotone_timestamps
from repro.workloads.readonly import ReadOnlyWorkload
from repro.workloads.ysb import YsbWorkload
from repro.workloads.nexmark import Nexmark8Workload


def test_counts_match_manual_fold():
    workload = ReadOnlyWorkload(records_per_thread=500, key_range=20)
    flows = workload.flows(1, 2)
    output = SequentialReference().run(workload.build_query(), flows)
    manual = {}
    for flow in flows.values():
        for _stream, batch in flow:
            for key in batch.keys:
                manual[int(key)] = manual.get(int(key), 0) + 1
    assert {key: v for (_win, key), v in output.aggregates.items()} == manual
    assert output.records == 1000


def test_filter_applied():
    workload = YsbWorkload(records_per_thread=900, key_range=10)
    flows = workload.flows(1, 1)
    output = SequentialReference().run(workload.build_query(), flows)
    total_counted = sum(output.aggregates.values())
    assert 0 < total_counted < 900  # only 'view' events survive


def test_join_pairs_sorted_and_consistent():
    workload = Nexmark8Workload(records_per_thread=300, sellers=10)
    flows = workload.flows(1, 1)
    output = SequentialReference().run(workload.build_query(), flows)
    assert output.join_pairs == sorted(output.join_pairs)
    assert len(output.join_pairs) > 0
    # Every pair joins on the key recorded in the tuple.
    for _win, key, left, right in output.join_pairs:
        assert left[1] == key  # key field position per schema
        assert right[1] == key


def test_order_of_flows_is_irrelevant():
    workload = ReadOnlyWorkload(records_per_thread=400, key_range=50)
    flows = workload.flows(1, 3)
    reversed_flows = dict(reversed(list(flows.items())))
    a = SequentialReference().run(workload.build_query(), flows)
    b = SequentialReference().run(workload.build_query(), reversed_flows)
    assert a.aggregates == b.aggregates


# -- the output the fold becomes --------------------------------------------
#
# Seeded (``REPRO_TEST_SEED``): random keys, float values with negatives
# (so a changed merge order shows in the last digit) and random window
# shapes.  Each test keeps the construction it replaced as the definition.

SCHEMA = Schema(
    "measurements", (("ts", "i8"), ("key", "i8"), ("value", "f8")), record_bytes=24
)


def _flows(rng, workers=4, records=600, span=200_000):
    flows = {}
    for worker in range(workers):
        ts = monotone_timestamps(records, span, rng)
        keys = rng.integers(0, int(rng.integers(5, 60)), size=records)
        values = rng.uniform(-5, 5, size=records)
        batch = SCHEMA.batch_from_columns(ts=ts, key=keys, value=values)
        flows[(worker // 2, worker % 2)] = [
            ("measurements", batch.take(np.arange(start, min(start + 150, records))))
            for start in range(0, records, 150)
        ]
    return flows


def _query(window, agg):
    query = Query(f"reference-{agg}")
    query.stream("measurements", SCHEMA).aggregate(
        window, agg=agg, value_field=None if agg == "count" else "value"
    )
    return query


def _run_keeping_fold(monkeypatch, query, flows):
    """The reference's output, its CRDT, and a copy of the fold it finished."""
    folds = []
    finish = SequentialReference._finish_aggregation

    def keep(self, plan, state, output):
        folds.append((plan.aggregation.crdt, dict(state)))
        finish(self, plan, state, output)

    monkeypatch.setattr(SequentialReference, "_finish_aggregation", keep)
    output = SequentialReference().run(query, flows)
    (crdt, fold), = folds
    return output.aggregates, crdt, fold


def _two_dicts(crdt, fold):
    """Tumbling output as a second dict built from the fold."""
    output = {}
    for (window_id, key), payload in fold.items():
        output[(window_id, key)] = crdt.finish(payload)
    return output


def _nested_slice_scan(crdt, window, fold):
    """Sliding output by rescanning the whole fold for every slice of
    every window."""
    output = {}
    windows_seen = set()
    for (slice_id, _key) in fold:
        windows_seen.update(window.windows_of_slice(slice_id))
    for window_id in sorted(windows_seen):
        merged = {}
        for slice_id in window.slices_of_window(window_id):
            for (sid, key), payload in fold.items():
                if sid == slice_id:
                    if key in merged:
                        merged[key] = crdt.merge(merged[key], payload)
                    else:
                        merged[key] = payload
        for key, payload in merged.items():
            output[(window_id, key)] = crdt.finish(payload)
    return output


def _shown(aggregates):
    return [(group, repr(value)) for group, value in aggregates.items()]


@pytest.mark.parametrize("agg", ["count", "sum", "min", "max", "avg"])
def test_tumbling_output_is_the_finished_fold(monkeypatch, rng, agg):
    window = TumblingWindow(size_ms=int(rng.integers(5, 40)) * 1000)
    output, crdt, fold = _run_keeping_fold(monkeypatch, _query(window, agg), _flows(rng))
    assert len(output) > 1
    assert _shown(output) == _shown(_two_dicts(crdt, fold))


@pytest.mark.parametrize("agg", ["sum", "avg", "count"])
def test_sliding_output_is_the_nested_slice_scan(monkeypatch, rng, agg):
    slide = int(rng.integers(2, 12)) * 1000
    window = SlidingWindow(size_ms=slide * int(rng.integers(2, 6)), slide_ms=slide)
    output, crdt, fold = _run_keeping_fold(monkeypatch, _query(window, agg), _flows(rng))
    assert len(output) > len(fold)
    assert _shown(output) == _shown(_nested_slice_scan(crdt, window, fold))
