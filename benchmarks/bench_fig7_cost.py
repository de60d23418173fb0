"""Figure 7: COST analysis — Slash vs the scale-up LightSaber.

Paper claims reproduced in shape: Slash overtakes LightSaber already at
2 nodes and keeps improving when doubling nodes, reaching ~11.6x on
YSB/CM and a smaller factor (~4.4x) on NB7 at 16 nodes.
"""

import pytest

from conftest import figure, register_report

NODE_COUNTS = (2, 4, 8, 16)
THREADS = 10
SIZE = {"records_per_thread": 2500, "batch_records": 500}


@pytest.mark.benchmark(group="fig7")
def test_fig7_cost(benchmark):
    report = benchmark.pedantic(
        lambda: figure(
            "fig7", {"nodes": ("L",) + NODE_COUNTS},
            threads=THREADS, workload_overrides=SIZE,
        ),
        rounds=1,
        iterations=1,
    )
    register_report("fig7_cost", report.render())

    for workload in ("ysb", "cm", "nb7"):
        speedups = {
            row["nodes"]: row["speedup_vs_lightsaber"]
            for row in report.rows
            if row["workload"] == workload and row["system"] == "slash"
        }
        assert speedups[2] > 1.0, f"{workload}: 2 Slash nodes must beat L"
        assert speedups[16] > speedups[2], f"{workload}: speedup must grow"
