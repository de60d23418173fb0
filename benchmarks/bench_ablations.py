"""Ablation studies for the design choices the paper calls out in text.

* **Channel credits** (Sec. 8.3.2): c=8 is the sweet spot; a single
  credit kills pipelining, and very deep rings (c=64) regress by a few
  percent through NIC WQE-cache pressure.
* **SSB epoch length** (Sec. 8.1.1): too-short epochs tax processing
  with synchronisation; beyond the default, returns flatten.
* **Selective signaling** (Sec. 3.2 / C2): requesting a completion per
  WRITE costs sender CPU without buying anything on this protocol.
"""

import pytest

from conftest import figure, register_report


@pytest.mark.benchmark(group="ablations")
def test_ablation_credits(benchmark):
    report = benchmark.pedantic(
        lambda: figure(
            "abl-credits", {"credits": (1, 4, 8, 16, 64)},
            threads=2, records_per_thread=120_000,
        ),
        rounds=1,
        iterations=1,
    )
    register_report("ablation_credits", report.render())

    rows = {r["credits"]: r["throughput_bytes_per_s"] for r in report.rows}
    assert rows[8] > rows[1]          # pipelining matters
    assert rows[8] >= rows[64] * 0.99  # deep rings buy nothing (or regress)


@pytest.mark.benchmark(group="ablations")
def test_ablation_epoch_bytes(benchmark):
    report = benchmark.pedantic(
        lambda: figure(
            "abl-epoch",
            {"epoch_bytes": (16 * 1024, 64 * 1024, 128 * 1024, 1024 * 1024)},
            nodes=4, threads=4,
        ),
        rounds=1,
        iterations=1,
    )
    register_report("ablation_epoch_bytes", report.render())

    rows = {r["epoch_bytes"]: r["throughput"] for r in report.rows}
    # Very short epochs pay more synchronisation than the default.
    assert rows[128 * 1024] >= rows[16 * 1024] * 0.95


@pytest.mark.benchmark(group="ablations")
def test_ablation_execution_strategy(benchmark):
    report = benchmark.pedantic(
        lambda: figure("abl-exec", nodes=4, threads=4),
        rounds=1,
        iterations=1,
    )
    register_report("ablation_execution_strategy", report.render())

    rows = {r["strategy"]: r["throughput"] for r in report.rows}
    # Interpretation slows the hot path, but by less than its raw 3x
    # factor: network and epoch synchronisation are strategy-agnostic.
    assert rows["compiled"] > rows["interpreted"]
    assert rows["interpreted"] > rows["compiled"] / 3.0


@pytest.mark.benchmark(group="ablations")
def test_ablation_selective_signaling(benchmark):
    report = benchmark.pedantic(
        lambda: figure("abl-signal", threads=2, records_per_thread=120_000),
        rounds=1,
        iterations=1,
    )
    register_report("ablation_selective_signaling", report.render())

    rows = {r["signaled"]: r["throughput_bytes_per_s"] for r in report.rows}
    assert rows[False] >= rows[True] * 0.98


@pytest.mark.benchmark(group="extra")
def test_extra_trigger_latency(benchmark):
    """Beyond the paper's figures: the latency cost of lazy merging.

    The paper's text (Sec. 8.3.2) reports microsecond-scale buffer
    latencies for both RDMA SUTs, an order of magnitude below Flink.
    This experiment measures *window trigger lag* end-to-end: Slash pays
    for its throughput with epoch-bounded emission lag, while the
    eager re-partitioning engines trigger almost immediately once their
    watermarks pass.
    """
    report = benchmark.pedantic(
        lambda: figure("extra-latency", nodes=2, threads=10, records_per_thread=6_000),
        rounds=1,
        iterations=1,
    )
    register_report("extra_trigger_latency", report.render())

    rows = {r["system"]: r for r in report.rows}
    # The RDMA exchange triggers with lower lag than the IPoIB one.
    assert rows["uppar"]["trigger_lag_mean_s"] < rows["flink"]["trigger_lag_mean_s"]
    # Lazy merging costs Slash trigger latency — a real, bounded trade-off.
    assert 0 < rows["slash"]["trigger_lag_mean_s"] < 1e-3
