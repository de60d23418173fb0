"""UpPar consumers reduce what arrives without re-running the filter chain.

The partitioner runs each batch's chain (filters only) before routing, so
a consumer's rows are already its survivors: ``reduce`` on them must give
the columns ``process_batch`` gives (the chain, then ``reduce``), and the
run must give the output of consumers that re-filter.
"""

import numpy as np
import pytest

from repro.core.pipeline import AggregationPipeline, JoinBuildPipeline
from repro.runtime import Scenario, diff_results, run_scenario

OVERRIDES = {"records_per_thread": 600}


def same_columns(got, want):
    assert (got.survivors, got.max_timestamp, got.state_bytes) == (
        want.survivors, want.max_timestamp, want.state_bytes
    )
    for name in ("group_windows", "group_keys", "group_partials"):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b), name
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
        else:
            assert a == b, name


def run(workload):
    return run_scenario(Scenario("uppar", workload, 2, 2, dict(OVERRIDES), seed=7))


@pytest.mark.parametrize("workload", ["ysb", "nb8", "nb11"])
def test_consumer_reduce_equals_refiltering(workload, monkeypatch):
    result = run(workload)
    checked = 0
    for pipeline in (AggregationPipeline, JoinBuildPipeline):
        reduce = pipeline.reduce

        def refiltering(self, filtered, max_timestamp, reduce=reduce):
            """The consumer as it was: the chain again, then the reduction;
            checked against the reduction alone."""
            nonlocal checked
            want = reduce(self, self.chain.apply(filtered), max_timestamp)
            same_columns(reduce(self, filtered, max_timestamp), want)
            checked += 1
            return want

        monkeypatch.setattr(pipeline, "reduce", refiltering)
    refiltered = run(workload)
    assert checked
    assert result.sim_seconds == refiltered.sim_seconds
    assert result.aggregates == refiltered.aggregates
    assert result.sorted_join_pairs() == refiltered.sorted_join_pairs()
    oracle = run_scenario(Scenario("reference", workload, 2, 2, dict(OVERRIDES), seed=7))
    assert diff_results(oracle, result).ok
