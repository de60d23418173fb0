"""Unit-level tests for the LightSaber-like scale-up engine."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.lightsaber import LightSaberEngine
from repro.baselines.reference import SequentialReference
from repro.common.rng import RngTree
from repro.core.query import Query
from repro.core.records import Schema
from repro.core.windows import SlidingWindow
from repro.workloads.distributions import monotone_timestamps, uniform_keys
from repro.workloads.cluster_monitoring import ClusterMonitoringWorkload
from repro.workloads.nexmark import Nexmark7Workload
from repro.workloads.ysb import YsbWorkload


def run(workload, threads=4):
    flows = workload.flows(1, threads)
    expected = SequentialReference().run(workload.build_query(), flows)
    result = LightSaberEngine().run(workload.build_query(), flows)
    assert set(result.aggregates) == set(expected.aggregates)
    for key, value in expected.aggregates.items():
        assert math.isclose(result.aggregates[key], value, rel_tol=1e-9)
    return result


def test_ysb_correct():
    run(YsbWorkload(records_per_thread=900, key_range=80, batch_records=150))


def test_cm_avg_correct():
    run(ClusterMonitoringWorkload(records_per_thread=900, jobs=60, batch_records=150))


def test_nb7_max_correct():
    run(Nexmark7Workload(records_per_thread=900, key_range=60, batch_records=150))


def test_mid_run_windows_fire_before_eos():
    """Worker 0 merges due windows while flows are still running, so
    triggering is not all deferred to the finalizer."""
    workload = YsbWorkload(
        records_per_thread=3000, key_range=30, batch_records=200, windows=8
    )
    result = run(workload, threads=2)
    windows = {win for win, _key in result.aggregates}
    assert len(windows) >= 6


def test_counters_accumulated():
    result = run(YsbWorkload(records_per_thread=600, key_range=40, batch_records=150))
    assert result.counters.instructions > 0
    assert result.counters.records > 0
    assert len(result.per_node_counters) == 1


def test_single_thread_runs():
    run(YsbWorkload(records_per_thread=600, key_range=40, batch_records=150), threads=1)


SLIDING_SCHEMA = Schema(
    "m", (("ts", "i8"), ("key", "i8"), ("value", "f8")), record_bytes=24
)


def sliding_sum_workload(records=800, keys=20):
    """A sum over 40 s windows sliding by 10 s, in batches of 100 records."""

    def build_query():
        query = Query("sliding-sum")
        query.stream("m", SLIDING_SCHEMA).aggregate(
            SlidingWindow(size_ms=40_000, slide_ms=10_000), agg="sum", value_field="value"
        )
        return query

    def flows(nodes, threads):
        tree = RngTree(5).child("lightsaber-sliding")
        out = {}
        for thread in range(threads):
            rng = tree.generator(0, thread)
            batch = SLIDING_SCHEMA.batch_from_columns(
                ts=monotone_timestamps(records, 150_000, rng),
                key=uniform_keys(records, keys, rng),
                value=rng.uniform(-5, 5, size=records).round(3),
            )
            out[(0, thread)] = [
                ("m", batch.take(np.arange(start, min(start + 100, records))))
                for start in range(0, records, 100)
            ]
        return out

    return SimpleNamespace(build_query=build_query, flows=flows)


@pytest.mark.parametrize("threads", [1, 4])
def test_sliding_window_merges_slices_across_thread_stores(threads):
    """Every window merges its four slices from every thread's store."""
    result = run(sliding_sum_workload(), threads=threads)
    assert result.emitted == len(result.aggregates)
    assert len({window for window, _key in result.aggregates}) >= 10
