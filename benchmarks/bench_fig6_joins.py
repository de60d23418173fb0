"""Figures 6d-6e: end-to-end windowed joins (NB8, NB11), weak scaling.

Paper claims reproduced in shape: Slash wins on both join queries, but
by smaller factors than on aggregations (joins are append-heavy and
memory-intensive; 'up to 8x over UpPar on NB8, 1.7x on NB11').
"""

import pytest

from conftest import figure, register_report

NODE_COUNTS = (2, 4, 8, 16)
THREADS = 10
SIZE = {"records_per_thread": 1000, "batch_records": 250}


@pytest.mark.benchmark(group="fig6")
def test_fig6_joins(benchmark):
    report = benchmark.pedantic(
        lambda: figure(
            "fig6d-e", {"nodes": NODE_COUNTS}, threads=THREADS,
            workload_overrides=SIZE,
        ),
        rounds=1,
        iterations=1,
    )
    register_report("fig6d-e_joins", report.render())

    for workload in ("nb8", "nb11"):
        series = {
            (row["system"], row["nodes"]): row["throughput"]
            for row in report.rows
            if row["workload"] == workload
        }
        for nodes in NODE_COUNTS:
            assert series[("slash", nodes)] > series[("flink", nodes)]
            assert series[("slash", nodes)] > series[("uppar", nodes)]
