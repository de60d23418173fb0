"""Tests for the figure grids — miniature versions of each figure.

These run the exact grids ``python -m repro run`` resolves, at tiny
sizes, and assert the qualitative claims of the paper (the 'shape'): who
wins, which way curves bend, which category dominates a breakdown.
"""

from repro.grid import resolve_grid, run_grid

TINY = {"records_per_thread": 1200, "batch_records": 300}


def figure(name, axes=None, **fixed):
    """One figure grid at miniature size, with its tables appended (the
    'built a table, forgot to append it' bug bit fig7 and extra-latency)."""
    report = run_grid(resolve_grid(name), axes, fixed)
    assert report.tables, f"{report.name} produced no tables"
    assert report.rows, f"{report.name} produced no rows"
    assert report.render().count("==") >= 2
    return report


class TestFig6Shape:
    def test_aggregations_ordering_and_render(self):
        report = figure(
            "fig6a-c", {"nodes": (2,)}, threads=4, workload_overrides=TINY,
        )
        by_system = {
            row["system"]: row["throughput"]
            for row in report.rows
            if row["workload"] == "ysb"
        }
        assert by_system["slash"] > by_system["uppar"] > by_system["flink"]
        rendered = report.render()
        assert "ysb" in rendered and "slash/uppar" in rendered

    def test_joins_ordering(self):
        report = figure(
            "fig6d-e", {"nodes": (2,)}, threads=4,
            workload_overrides={"records_per_thread": 500, "batch_records": 125},
        )
        for workload in ("nb8", "nb11"):
            by_system = {
                row["system"]: row["throughput"]
                for row in report.rows
                if row["workload"] == workload
            }
            assert by_system["slash"] > by_system["flink"]
            assert by_system["slash"] > by_system["uppar"]


class TestFig7Shape:
    def test_slash_beats_lightsaber_with_nodes(self):
        report = figure(
            "fig7", {"nodes": ("L", 2, 4), "workload": ("ysb",)},
            threads=4, workload_overrides=TINY,
        )
        speedups = [
            row["speedup_vs_lightsaber"]
            for row in report.rows
            if row["system"] == "slash"
        ]
        assert speedups[0] > 1.0  # 2 nodes already beat one scale-up node
        assert speedups[1] > speedups[0]  # and it keeps scaling


class TestFig8Shapes:
    def test_buffer_sweep_throughput_grows_then_saturates(self):
        report = figure(
            "fig8ab", {"buffer": (4096, 65536)}, threads=2,
            records_per_thread=20_000,
        )
        slash = {
            row["buffer_bytes"]: row["throughput_bytes_per_s"]
            for row in report.rows
            if row["system"] == "slash"
        }
        assert slash[65536] > slash[4096]
        latency = {
            row["buffer_bytes"]: row["mean_latency_s"]
            for row in report.rows
            if row["system"] == "slash"
        }
        assert latency[65536] > latency[4096]

    def test_parallelism_slash_saturates_before_uppar(self):
        report = figure(
            "fig8c", {"threads": (2, 8)}, records_per_thread=20_000
        )
        rows = {(r["system"], r["threads"]): r["throughput_bytes_per_s"] for r in report.rows}
        assert rows[("slash", 2)] > rows[("uppar", 2)]
        assert rows[("uppar", 8)] > rows[("uppar", 2)]

    def test_skew_directions(self):
        report = figure(
            "fig8d", {"z": (0.2, 2.0)}, threads=4, records_per_thread=16_000
        )
        rows = {
            (r["workload"], r["system"], r["z"]): r for r in report.rows
        }
        # RO: UpPar collapses, Slash flat.
        assert (
            rows[("ro", "uppar", 2.0)]["throughput_bytes_per_s"]
            < rows[("ro", "uppar", 0.2)]["throughput_bytes_per_s"]
        )
        slash_ratio = (
            rows[("ro", "slash", 2.0)]["throughput_bytes_per_s"]
            / rows[("ro", "slash", 0.2)]["throughput_bytes_per_s"]
        )
        assert slash_ratio > 0.85
        # YSB: Slash rises with skew.
        assert (
            rows[("ysb", "slash", 2.0)]["throughput_records_per_s"]
            > rows[("ysb", "slash", 0.2)]["throughput_records_per_s"]
        )


class TestBreakdownShapes:
    def test_fig9_verdicts(self):
        report = figure("fig9", {"threads": (2,)}, records_per_thread=20_000)
        rendered = report.render()
        assert "uppar sender" in rendered
        # The paper's verdicts: UpPar receiver core-bound (waiting on the
        # slow sender); Slash sender core-bound (waiting on the network).
        (payload,) = [r for r in report.rows if r["system"] == "uppar"]
        from repro.simnet.counters import CycleCategory

        receiver = payload["receiver"]
        assert receiver[CycleCategory.CORE] == max(
            v for k, v in receiver.items() if k != CycleCategory.RETIRING
        )

    def test_fig10_slash_memory_bound(self):
        report = figure("fig10", threads=4, records_per_thread=4_000)
        (slash_row,) = [r for r in report.rows if r["system"] == "slash"]
        from repro.simnet.counters import CycleCategory

        busy = slash_row["busy"]["slash (whole)"]
        assert busy[CycleCategory.MEMORY] > busy[CycleCategory.FRONTEND]

    def test_table1_magnitudes(self):
        report = figure("table1", threads=4, records_per_thread=4_000)
        rows = {r["who"]: r for r in report.rows}
        # UpPar needs more cycles per record than Slash.
        assert rows["uppar sender"]["cyc_per_rec"] > rows["slash"]["cyc_per_rec"] * 0.5
        assert rows["slash"]["ipc"] > 0
        assert rows["slash"]["mem_bw_bytes_per_s"] > 0


class TestAblations:
    def test_credits_eight_is_sweet_spot(self):
        report = figure(
            "abl-credits", {"credits": (1, 8)}, threads=2,
            records_per_thread=20_000,
        )
        rows = {r["credits"]: r["throughput_bytes_per_s"] for r in report.rows}
        assert rows[8] > rows[1]  # no pipelining with a single credit

    def test_epoch_sweep_runs(self):
        report = figure(
            "abl-epoch", {"epoch_bytes": (16 * 1024, 1024 * 1024)},
            nodes=2, threads=2,
        )
        assert len(report.rows) == 2
        assert all(r["throughput"] > 0 for r in report.rows)

    def test_execution_strategy_compiled_faster(self):
        report = figure("abl-exec", nodes=2, threads=2, records_per_thread=1000)
        rows = {r["strategy"]: r["throughput"] for r in report.rows}
        assert rows["compiled"] > rows["interpreted"]

    def test_trigger_lag_rdma_exchange_beats_ipoib(self):
        report = figure("extra-latency", nodes=2, threads=2, records_per_thread=1500)
        rows = {r["system"]: r["trigger_lag_mean_s"] for r in report.rows}
        assert rows["uppar"] < rows["flink"]
        assert rows["slash"] > 0

    def test_selective_signaling_wins(self):
        report = figure("abl-signal", threads=2, records_per_thread=20_000)
        rows = {r["signaled"]: r["throughput_bytes_per_s"] for r in report.rows}
        assert rows[False] >= rows[True] * 0.98
