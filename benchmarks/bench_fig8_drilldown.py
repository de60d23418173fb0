"""Figures 8a-8d: drill-down on the RDMA data plane.

Paper claims reproduced in shape:
* 8a — throughput grows with buffer size and saturates near the
  measured 11.8 GB/s link ceiling; Slash saturates with few threads,
  UpPar stays well below at the same parallelism;
* 8b — per-buffer latency grows with buffer size (sub-100 us for small
  buffers, ~ms at 1 MiB); UpPar sits above Slash;
* 8c — Slash is network-bound at ~2 threads; UpPar needs many threads
  and still trails;
* 8d — Zipf skew collapses UpPar (hash partitioning concentrates load)
  while Slash stays flat on RO and *gains* on YSB.
"""

import pytest

from conftest import figure, register_report
from repro.grid.figures import LINK_BANDWIDTH


@pytest.mark.benchmark(group="fig8")
def test_fig8a_b_buffer_sweep(benchmark):
    report = benchmark.pedantic(
        lambda: figure("fig8ab", threads=2, records_per_thread=150_000),
        rounds=1,
        iterations=1,
    )
    register_report("fig8a-b_buffer_sweep", report.render())

    slash = {
        row["buffer_bytes"]: row
        for row in report.rows
        if row["system"] == "slash"
    }
    # Throughput rises from small to sweet-spot buffers and saturates.
    assert slash[32768]["throughput_bytes_per_s"] > slash[4096]["throughput_bytes_per_s"]
    assert slash[65536]["throughput_bytes_per_s"] > 0.85 * LINK_BANDWIDTH
    # Latency rises monotonically-ish with buffer size; ~sub-100us small.
    assert slash[4096]["mean_latency_s"] < 100e-6
    assert slash[1048576]["mean_latency_s"] > slash[32768]["mean_latency_s"]
    # UpPar below Slash at the same configuration.
    uppar = {
        row["buffer_bytes"]: row for row in report.rows if row["system"] == "uppar"
    }
    assert uppar[65536]["throughput_bytes_per_s"] < slash[65536]["throughput_bytes_per_s"]


@pytest.mark.benchmark(group="fig8")
def test_fig8c_parallelism(benchmark):
    report = benchmark.pedantic(
        lambda: figure(
            "fig8c", {"threads": (1, 2, 4, 6, 8, 10)}, records_per_thread=120_000
        ),
        rounds=1,
        iterations=1,
    )
    register_report("fig8c_parallelism", report.render())

    rows = {(r["system"], r["threads"]): r["throughput_bytes_per_s"] for r in report.rows}
    # Slash saturates early: 2 threads already close to the link.
    assert rows[("slash", 2)] > 0.85 * LINK_BANDWIDTH
    # UpPar needs many threads and improves with parallelism.
    assert rows[("uppar", 10)] > rows[("uppar", 2)]
    assert rows[("uppar", 2)] < 0.5 * LINK_BANDWIDTH


@pytest.mark.benchmark(group="fig8")
def test_fig8d_skew(benchmark):
    report = benchmark.pedantic(
        lambda: figure(
            "fig8d", {"z": (0.2, 0.6, 1.0, 1.4, 1.8, 2.0)},
            threads=10, records_per_thread=60_000,
        ),
        rounds=1,
        iterations=1,
    )
    register_report("fig8d_skew", report.render())

    rows = {(r["workload"], r["system"], r["z"]): r for r in report.rows}
    # RO: UpPar collapses with skew; Slash flat (transfer is data-agnostic).
    assert (
        rows[("ro", "uppar", 2.0)]["throughput_bytes_per_s"]
        < 0.7 * rows[("ro", "uppar", 0.2)]["throughput_bytes_per_s"]
    )
    slash_ratio = (
        rows[("ro", "slash", 2.0)]["throughput_bytes_per_s"]
        / rows[("ro", "slash", 0.2)]["throughput_bytes_per_s"]
    )
    assert 0.9 < slash_ratio < 1.1
    # YSB: skew *helps* Slash (smaller hot state, fewer pairs to merge)
    # and hurts UpPar.
    assert (
        rows[("ysb", "slash", 2.0)]["throughput_records_per_s"]
        > rows[("ysb", "slash", 0.2)]["throughput_records_per_s"]
    )
    assert (
        rows[("ysb", "uppar", 2.0)]["throughput_records_per_s"]
        < rows[("ysb", "uppar", 0.2)]["throughput_records_per_s"]
    )
