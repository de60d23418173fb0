"""Figures 6a-6c: end-to-end windowed aggregations, weak scaling.

Paper claims reproduced in shape:
* Slash > RDMA UpPar > Flink at every node count;
* Slash scales almost linearly to 16 nodes (multi-billion records/s);
* the Slash/UpPar and Slash/Flink gaps widen with the node count
  ('up to 12x / 25x' on YSB, 22x / 104x on NB7, ~100x on CM).
"""

import pytest

from conftest import figure, register_report

NODE_COUNTS = (2, 4, 8, 16)
THREADS = 10
SIZE = {"records_per_thread": 2500, "batch_records": 500}


@pytest.mark.benchmark(group="fig6")
def test_fig6_aggregations(benchmark):
    report = benchmark.pedantic(
        lambda: figure(
            "fig6a-c", {"nodes": NODE_COUNTS}, threads=THREADS,
            workload_overrides=SIZE,
        ),
        rounds=1,
        iterations=1,
    )
    register_report("fig6a-c_aggregations", report.render())

    # Shape assertions (the paper's qualitative claims).
    for workload in ("ysb", "cm", "nb7"):
        series = {
            (row["system"], row["nodes"]): row["throughput"]
            for row in report.rows
            if row["workload"] == workload
        }
        for nodes in NODE_COUNTS:
            assert series[("slash", nodes)] > series[("uppar", nodes)]
            assert series[("uppar", nodes)] > series[("flink", nodes)]
        # The Slash advantage grows with scale.
        gap_small = series[("slash", 2)] / series[("uppar", 2)]
        gap_large = series[("slash", 16)] / series[("uppar", 16)]
        assert gap_large > gap_small
