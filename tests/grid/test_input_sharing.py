"""Count guard: a sweep generates each input once, not once per cell.

Exact and machine-independent — the counters sit on the Zipf table
constructor, on every ``_flow`` and on ``Workload.flows`` while ``fig8d``
(the skew sweep: RO transfer cells, then YSB scenario cells, two engines
per skew) runs at ``run --quick`` size through ``run_grid``.
"""

import itertools
import weakref

import pytest

from repro.grid import expand_grid, resolve_grid, run_grid
from repro.runtime import WORKLOADS, scenario
from repro.workloads.base import Workload
from repro.workloads.distributions import ZipfTable

QUICK = {"threads": 4, "records_per_thread": 1200}


def _request(cell):
    """``(workload key, workers)`` one cell asks ``make_workload`` for."""
    kind, params = cell
    overrides = dict(params["workload_overrides"] or {})
    if kind == "transfer":
        name, nodes, threads = params["workload_name"], 1, params["bench_kwargs"]["threads"]
    else:
        name, nodes, threads = params["workload"], params["nodes"], params["threads"]
        if params["seed"] is not None:
            overrides.setdefault("seed", params["seed"])
    workers = {(node, thread) for node in range(nodes) for thread in range(threads)}
    return (name, tuple(sorted(overrides.items()))), workers


@pytest.fixture
def counters(monkeypatch):
    """Count table builds, ``_flow`` runs and generating ``flows()`` calls."""
    monkeypatch.setattr(scenario, "_last_workload", None)
    monkeypatch.setattr(scenario, "_live_workloads", weakref.WeakValueDictionary())
    seen = {"tables": 0, "flow_runs": 0, "generating_calls": 0}

    table_init = ZipfTable.__init__

    def counted_init(self, key_range, z, mapping_rng=None):
        seen["tables"] += z > 0
        table_init(self, key_range, z, mapping_rng)

    monkeypatch.setattr(ZipfTable, "__init__", counted_init)

    owners = {
        next(k for k in cls.__mro__ if "_flow" in vars(k)) for cls, _presets in WORKLOADS.values()
    }
    for owner in owners:
        def counted_flow(self, node, thread, _flow=owner._flow):
            seen["flow_runs"] += 1
            return _flow(self, node, thread)

        monkeypatch.setattr(owner, "_flow", counted_flow)

    flows = Workload.flows

    def counted_flows(self, nodes, threads_per_node):
        before = seen["flow_runs"]
        try:
            return flows(self, nodes, threads_per_node)
        finally:
            seen["generating_calls"] += seen["flow_runs"] > before

    monkeypatch.setattr(Workload, "flows", counted_flows)
    return seen


def test_fig8d_builds_each_table_and_flow_once_per_run_of_equal_requests(counters):
    grid = resolve_grid("fig8d")
    cells = expand_grid(grid, fixed_overrides=QUICK).cells
    requests = [_request(cell) for cell in cells]
    # One slot: consecutive cells asking for the same workload share it.
    distinct_flows = sum(
        len(set().union(*(workers for _key, workers in run)))
        for _key, run in itertools.groupby(requests, key=lambda request: request[0])
    )
    assert len(cells) == 24 and distinct_flows == 6 * 4 + 6 * 8

    run_grid(grid, fixed_overrides=QUICK)

    # Every fig8d flow is skewed, so every generating call builds a table.
    assert 0 < counters["tables"] <= counters["generating_calls"]
    assert counters["generating_calls"] == len({key for key, _workers in requests})
    assert counters["flow_runs"] == distinct_flows
