"""Every Sec. 8 table/figure of the paper as a registered sweep grid.

Each grid's axes spell out the figure's sweep, its cell template routes
every end-to-end point through :class:`~repro.runtime.Scenario` (so
sanitizer/fault/elastic/overload hooks attach uniformly), and its report
function renders the figure from the in-order results.  Registration is
the only entry point: ``python -m repro run <figure>`` and ``python -m
repro grid <figure>`` both resolve these grids and call
:func:`repro.grid.run_grid`.
"""

from __future__ import annotations

from repro.common.units import fmt_rate, fmt_rate_records, fmt_time
from repro.core.system import CAP_SCALE_OUT, CAP_TRANSFER_BENCH
from repro.grid.cells import end_to_end_scenario_cell, transfer_cell
from repro.grid.registry import register_grid
from repro.grid.spec import EngineSet, GridRun, SweepGrid
from repro.metrics.breakdown import breakdown_table, table1_row
from repro.metrics.reporting import Report, TextTable, format_si
from repro.runtime.registry import BENCH_EPOCH_BYTES

# The measured link ceiling the paper draws as the red line in Fig. 8.
LINK_BANDWIDTH = 11.8e9

#: The scale-out engine axis of the weak-scaling figures; resolves to
#: (flink, uppar, slash) in registry order.
SCALE_OUT_ENGINES = EngineSet(capabilities=(CAP_SCALE_OUT,))

#: The RDMA transfer-bench pair of the Fig. 8/9 drill-downs, in the
#: paper's display order (Slash first).
TRANSFER_ENGINES = EngineSet(
    include=("slash", "uppar"), capabilities=(CAP_TRANSFER_BENCH,)
)


# ---------------------------------------------------------------------------
# Fig. 6: end-to-end weak scaling
# ---------------------------------------------------------------------------

def _fig6_cell(point: dict, fixed: dict):
    return end_to_end_scenario_cell(
        point["system"], point["workload"], point["nodes"], fixed["threads"],
        workload_overrides=fixed["workload_overrides"],
    )


def _fig6_report(run: GridRun) -> Report:
    name = run.grid.title
    systems = run.axis("system")
    report = Report(name)
    results = run.iter_results()
    for workload_name in run.axis("workload"):
        table = TextTable(
            f"{name}: {workload_name} throughput (records/s), weak scaling",
            ["nodes"] + [f"{s}" for s in systems] + ["slash/uppar", "slash/flink"],
        )
        for nodes in run.axis("nodes"):
            throughputs = {}
            for system in systems:
                row = next(results)
                throughputs[system] = row.throughput_records_per_s
                report.rows.append(
                    {
                        "figure": name,
                        "workload": workload_name,
                        "system": system,
                        "nodes": nodes,
                        "throughput": row.throughput_records_per_s,
                    }
                )
            cells = [format_si(throughputs[s], "rec/s") for s in systems]
            ratio_uppar = (
                f"{throughputs.get('slash', 0) / throughputs['uppar']:.1f}x"
                if "uppar" in throughputs and throughputs["uppar"]
                else "-"
            )
            ratio_flink = (
                f"{throughputs.get('slash', 0) / throughputs['flink']:.1f}x"
                if "flink" in throughputs and throughputs["flink"]
                else "-"
            )
            table.add_row(nodes, *cells, ratio_uppar, ratio_flink)
        report.tables.append(table)
    return report


register_grid(SweepGrid(
    name="fig6a-c",
    title="fig6a-c (aggregations)",
    description="YSB/CM/NB7 windowed aggregations, weak scaling",
    aliases=("fig6a", "fig6b", "fig6c"),
    axes=(
        ("workload", ("ysb", "cm", "nb7")),
        ("nodes", (2, 4, 8, 16)),
        ("system", SCALE_OUT_ENGINES),
    ),
    fixed={"threads": 10, "workload_overrides": None},
    cell=_fig6_cell,
    report=_fig6_report,
))

register_grid(SweepGrid(
    name="fig6d-e",
    title="fig6d-e (joins)",
    description="NB8/NB11 windowed joins, weak scaling",
    aliases=("fig6d", "fig6e"),
    axes=(
        ("workload", ("nb8", "nb11")),
        ("nodes", (2, 4, 8, 16)),
        ("system", SCALE_OUT_ENGINES),
    ),
    fixed={"threads": 10, "workload_overrides": None},
    cell=_fig6_cell,
    report=_fig6_report,
))


# ---------------------------------------------------------------------------
# Fig. 7: COST analysis against LightSaber
# ---------------------------------------------------------------------------

def _fig7_cell(point: dict, fixed: dict):
    # "L" is the scale-up baseline point: LightSaber on one (big) node.
    if point["nodes"] == "L":
        return end_to_end_scenario_cell(
            "lightsaber", point["workload"], 1, fixed["threads"],
            workload_overrides=fixed["workload_overrides"],
        )
    return end_to_end_scenario_cell(
        "slash", point["workload"], point["nodes"], fixed["threads"],
        workload_overrides=fixed["workload_overrides"],
    )


def _fig7_report(run: GridRun) -> Report:
    report = Report("fig7 (COST vs LightSaber)")
    node_counts = [n for n in run.axis("nodes") if n != "L"]
    results = run.iter_results()
    for workload_name in run.axis("workload"):
        table = TextTable(
            f"fig7: {workload_name} (L = LightSaber, 1 node)",
            ["config", "throughput", "vs L"],
        )
        baseline = next(results)
        table.add_row("L", format_si(baseline.throughput_records_per_s, "rec/s"), "1.0x")
        report.rows.append(
            {"figure": "fig7", "workload": workload_name, "system": "lightsaber",
             "nodes": 1, "throughput": baseline.throughput_records_per_s}
        )
        for nodes in node_counts:
            row = next(results)
            speedup = row.throughput_records_per_s / baseline.throughput_records_per_s
            table.add_row(
                f"slash x{nodes}",
                format_si(row.throughput_records_per_s, "rec/s"),
                f"{speedup:.1f}x",
            )
            report.rows.append(
                {"figure": "fig7", "workload": workload_name, "system": "slash",
                 "nodes": nodes, "throughput": row.throughput_records_per_s,
                 "speedup_vs_lightsaber": speedup}
            )
        report.tables.append(table)
    return report


register_grid(SweepGrid(
    name="fig7",
    description="COST analysis vs LightSaber",
    axes=(
        ("workload", ("ysb", "cm", "nb7")),
        ("nodes", ("L", 2, 4, 8, 16)),
    ),
    fixed={"threads": 10, "workload_overrides": None},
    cell=_fig7_cell,
    report=_fig7_report,
))


# ---------------------------------------------------------------------------
# Fig. 8: drill-down on the data plane
# ---------------------------------------------------------------------------

def _fig8ab_cell(point: dict, fixed: dict):
    return transfer_cell(
        point["system"],
        workload_overrides={"records_per_thread": fixed["records_per_thread"]},
        threads=fixed["threads"], buffer_bytes=point["buffer"],
    )


def _fig8ab_report(run: GridRun) -> Report:
    threads = run.fixed["threads"]
    report = Report("fig8a-b (buffer size)")
    table = TextTable(
        f"fig8a/b: RO over 1 NIC, {threads} threads "
        f"(red line = {fmt_rate(LINK_BANDWIDTH)})",
        ["buffer", "system", "throughput", "% of link", "latency"],
    )
    results = run.iter_results()
    for buffer_bytes in run.axis("buffer"):
        for system in run.axis("system"):
            result = next(results)
            table.add_row(
                format_si(buffer_bytes, "B", digits=0),
                system,
                fmt_rate(result.throughput_bytes_per_s),
                f"{result.throughput_bytes_per_s / LINK_BANDWIDTH * 100:.1f}%",
                fmt_time(result.mean_latency_s),
            )
            report.rows.append(
                {"figure": "fig8ab", "system": system, "buffer_bytes": buffer_bytes,
                 "throughput_bytes_per_s": result.throughput_bytes_per_s,
                 "mean_latency_s": result.mean_latency_s}
            )
    report.tables.append(table)
    return report


register_grid(SweepGrid(
    name="fig8ab",
    description="RO throughput/latency vs channel buffer size",
    aliases=("fig8a", "fig8b"),
    axes=(
        ("buffer", (4096, 16384, 32768, 65536, 131072, 262144, 524288, 1048576)),
        ("system", TRANSFER_ENGINES),
    ),
    fixed={"threads": 2, "records_per_thread": 150_000},
    cell=_fig8ab_cell,
    report=_fig8ab_report,
))


def _fig8c_cell(point: dict, fixed: dict):
    return transfer_cell(
        point["system"],
        workload_overrides={"records_per_thread": fixed["records_per_thread"]},
        threads=point["threads"], buffer_bytes=fixed["buffer_bytes"],
    )


def _fig8c_report(run: GridRun) -> Report:
    report = Report("fig8c (parallelism)")
    table = TextTable(
        f"fig8c: RO over 1 NIC, 64 KiB buffers (link = {fmt_rate(LINK_BANDWIDTH)})",
        ["threads", "system", "throughput", "% of link"],
    )
    results = run.iter_results()
    for threads in run.axis("threads"):
        for system in run.axis("system"):
            result = next(results)
            table.add_row(
                threads,
                system,
                fmt_rate(result.throughput_bytes_per_s),
                f"{result.throughput_bytes_per_s / LINK_BANDWIDTH * 100:.1f}%",
            )
            report.rows.append(
                {"figure": "fig8c", "system": system, "threads": threads,
                 "throughput_bytes_per_s": result.throughput_bytes_per_s}
            )
    report.tables.append(table)
    return report


register_grid(SweepGrid(
    name="fig8c",
    description="RO throughput vs thread count",
    axes=(
        ("threads", (1, 2, 4, 6, 8, 10)),
        ("system", TRANSFER_ENGINES),
    ),
    fixed={"buffer_bytes": 65536, "records_per_thread": 120_000},
    cell=_fig8c_cell,
    report=_fig8c_report,
))


def _fig8d_cell(point: dict, fixed: dict):
    if point["workload"] == "ro":
        return transfer_cell(
            point["system"],
            workload_overrides={
                "zipf_z": point["z"],
                "records_per_thread": fixed["records_per_thread"],
            },
            threads=fixed["threads"], buffer_bytes=fixed["buffer_bytes"],
        )
    # The stateful-query half of Fig. 8d: skew helps Slash (smaller
    # state to keep hot and to merge) and starves the hash-partitioned
    # shape (one hot consumer).
    return end_to_end_scenario_cell(
        point["system"], "ysb", 2, fixed["threads"],
        workload_overrides={
            "zipf_z": point["z"],
            "key_range": 1_000_000,
            "records_per_thread": max(4_000, fixed["records_per_thread"] // 10),
            "batch_records": 800,
        },
    )


def _fig8d_report(run: GridRun) -> Report:
    report = Report("fig8d (data skewness)")
    table = TextTable(
        "fig8d: throughput vs Zipf z (RO transfer in GB/s; YSB end-to-end "
        "on 2 nodes in records/s)",
        ["workload", "z", "system", "throughput"],
    )
    results = run.iter_results()
    for workload_name in run.axis("workload"):
        for z in run.axis("z"):
            for system in run.axis("system"):
                if workload_name == "ro":
                    result = next(results)
                    bytes_per_s = result.throughput_bytes_per_s
                    records_per_s = result.throughput_records_per_s
                    value = fmt_rate(bytes_per_s)
                else:
                    row = next(results)
                    bytes_per_s = row.throughput_records_per_s * 78
                    records_per_s = row.throughput_records_per_s
                    value = fmt_rate_records(records_per_s)
                table.add_row(workload_name, z, system, value)
                report.rows.append(
                    {"figure": "fig8d", "workload": workload_name, "system": system,
                     "z": z,
                     "throughput_bytes_per_s": bytes_per_s,
                     "throughput_records_per_s": records_per_s}
                )
    report.tables.append(table)
    return report


register_grid(SweepGrid(
    name="fig8d",
    description="throughput vs Zipf key skew (RO + YSB)",
    axes=(
        ("workload", ("ro", "ysb")),
        ("z", (0.2, 0.6, 1.0, 1.4, 1.8, 2.0)),
        ("system", EngineSet(
            include=("slash", "uppar"),
            capabilities=(CAP_TRANSFER_BENCH, CAP_SCALE_OUT),
        )),
    ),
    fixed={"threads": 10, "buffer_bytes": 65536, "records_per_thread": 60_000},
    cell=_fig8d_cell,
    report=_fig8d_report,
))


# ---------------------------------------------------------------------------
# Figs. 9-10 and Table 1: micro-architecture analysis
# ---------------------------------------------------------------------------

def _fig9_cell(point: dict, fixed: dict):
    return transfer_cell(
        point["system"],
        workload_overrides={"records_per_thread": fixed["records_per_thread"]},
        threads=point["threads"], buffer_bytes=fixed["buffer_bytes"],
    )


def _fig9_report(run: GridRun) -> Report:
    report = Report("fig9 (execution breakdown, RO)")
    results = run.iter_results()
    for threads in run.axis("threads"):
        rows = {}
        for system in run.axis("system"):
            result = next(results)
            rows[f"{system} sender ({threads}T)"] = result.sender_counters
            rows[f"{system} receiver ({threads}T)"] = result.receiver_counters
            report.rows.append(
                {"figure": "fig9", "system": system, "threads": threads,
                 "sender": result.sender_counters.breakdown(),
                 "receiver": result.receiver_counters.breakdown()}
            )
        report.tables.append(
            breakdown_table(f"fig9: RO top-down breakdown, {threads} threads", rows)
        )
    return report


register_grid(SweepGrid(
    name="fig9",
    description="top-down breakdown of RO (senders/receivers)",
    axes=(
        ("threads", (2, 10)),
        ("system", EngineSet(
            include=("uppar", "slash"), capabilities=(CAP_TRANSFER_BENCH,)
        )),
    ),
    fixed={"buffer_bytes": 65536, "records_per_thread": 120_000},
    cell=_fig9_cell,
    report=_fig9_report,
))


def _ysb_two_node_cell(point: dict, fixed: dict):
    """The shared Fig. 10 / Table 1 cell: end-to-end YSB on two nodes.

    Routed through :class:`~repro.runtime.Scenario` like every other
    grid cell, so the sanitizer/fault hooks attach uniformly here too.
    """
    return end_to_end_scenario_cell(
        point["system"], "ysb", 2, fixed["threads"],
        workload_overrides={
            "records_per_thread": fixed["records_per_thread"],
            "batch_records": 800,
        },
    )


def _fig10_report(run: GridRun) -> Report:
    report = Report("fig10 (execution breakdown, YSB)")
    busy_rows = {}
    full_rows = {}
    results = run.iter_results()
    for system in run.axis("system"):
        result = next(results)
        counters = {
            f"{system} ({role})" if role == "whole" else f"{system} {role}": c
            for role, c in result.counter_roles().items()
        }
        for label, c in counters.items():
            busy_rows[label] = c
            full_rows[label] = c
        report.rows.append(
            {
                "figure": "fig10",
                "system": system,
                "busy": {
                    label: c.breakdown(exclude_wait=True)
                    for label, c in counters.items()
                },
                "full": {label: c.breakdown() for label, c in counters.items()},
            }
        )
    busy_table = TextTable(
        "fig10: YSB busy-cycle breakdown (spin waits excluded)",
        ["who", "Retiring%", "FeB%", "BadS%", "MemB%", "CoreB%"],
    )
    for label, c in busy_rows.items():
        shares = c.breakdown(exclude_wait=True)
        busy_table.add_row(
            label,
            *(f"{shares[cat] * 100:.1f}" for cat in list(shares)),
        )
    report.tables.append(busy_table)
    report.tables.append(
        breakdown_table("fig10: YSB full breakdown (waits as core-bound)", full_rows)
    )
    return report


register_grid(SweepGrid(
    name="fig10",
    description="top-down breakdown of end-to-end YSB",
    axes=(
        ("system", EngineSet(
            include=("uppar", "slash"), capabilities=(CAP_SCALE_OUT,)
        )),
    ),
    fixed={"threads": 10, "records_per_thread": 6_000},
    cell=_ysb_two_node_cell,
    report=_fig10_report,
))


def _table1_report(run: GridRun) -> Report:
    report = Report("table1 (resource utilisation, YSB, 2 nodes)")
    table = TextTable(
        "table1: YSB, 2 nodes (busy cycles; Wait% = spin share of total)",
        ["who", "IPC", "Instr/Rec", "Cyc/Rec", "L1d/Rec", "L2d/Rec", "LLC/Rec",
         "Aggr.MemBw", "Wait%"],
    )

    def add(label: str, counters, elapsed: float) -> None:
        row = table1_row(counters, elapsed)
        wait_share = (
            counters.wait_cycles / counters.total_cycles * 100
            if counters.total_cycles
            else 0.0
        )
        table.add_row(
            label,
            f"{row['ipc']:.2f}",
            f"{row['instr_per_rec']:.0f}",
            f"{row['cyc_per_rec']:.0f}",
            f"{row['l1d_miss_per_rec']:.2f}",
            f"{row['l2d_miss_per_rec']:.2f}",
            f"{row['llc_miss_per_rec']:.2f}",
            fmt_rate(row["mem_bw_bytes_per_s"]),
            f"{wait_share:.0f}",
        )
        report.rows.append({"figure": "table1", "who": label, **row})

    results = run.iter_results()
    for system in run.axis("system"):
        result = next(results)
        for role, counters in result.counter_roles().items():
            label = system if role == "whole" else f"{system} {role}"
            add(label, counters, result.sim_seconds)
    report.tables.append(table)
    return report


register_grid(SweepGrid(
    name="table1",
    description="resource utilisation counters, YSB on 2 nodes",
    axes=(
        ("system", EngineSet(
            include=("uppar", "slash"), capabilities=(CAP_SCALE_OUT,)
        )),
    ),
    fixed={"threads": 10, "records_per_thread": 6_000},
    cell=_ysb_two_node_cell,
    report=_table1_report,
))


# ---------------------------------------------------------------------------
# Ablations (claims from the paper's text)
# ---------------------------------------------------------------------------

def _abl_credits_cell(point: dict, fixed: dict):
    return transfer_cell(
        "slash",
        workload_overrides={"records_per_thread": fixed["records_per_thread"]},
        threads=fixed["threads"], buffer_bytes=fixed["buffer_bytes"],
        credits=point["credits"],
    )


def _abl_credits_report(run: GridRun) -> Report:
    report = Report("ablation: channel credits")
    table = TextTable(
        "RO throughput vs credit count (Slash channels)",
        ["credits", "throughput", "vs c=8"],
    )
    cell_results = run.iter_results()
    results = {}
    for credits in run.axis("credits"):
        results[credits] = next(cell_results).throughput_bytes_per_s
    base = results.get(8) or max(results.values())
    for credits in run.axis("credits"):
        table.add_row(
            credits,
            fmt_rate(results[credits]),
            f"{results[credits] / base * 100:.1f}%",
        )
        report.rows.append(
            {"figure": "abl-credits", "credits": credits,
             "throughput_bytes_per_s": results[credits]}
        )
    report.tables.append(table)
    return report


register_grid(SweepGrid(
    name="abl-credits",
    description="ablation: channel credit count",
    axes=(("credits", (4, 8, 16, 64)),),
    fixed={"threads": 2, "buffer_bytes": 65536, "records_per_thread": 120_000},
    cell=_abl_credits_cell,
    report=_abl_credits_report,
))


def _abl_epoch_cell(point: dict, fixed: dict):
    return end_to_end_scenario_cell(
        "slash", "ysb", fixed["nodes"], fixed["threads"],
        engine_overrides={"epoch_bytes": point["epoch_bytes"]},
    )


def _abl_epoch_report(run: GridRun) -> Report:
    report = Report("ablation: SSB epoch length")
    table = TextTable(
        "YSB throughput and trigger lag vs epoch length (Slash end-to-end)",
        ["epoch bytes", "throughput", "sim time", "mean trigger lag"],
    )
    results = run.iter_results()
    for epoch_bytes in run.axis("epoch_bytes"):
        row = next(results)
        lag = row.extra.get("trigger_lag_mean_s", 0.0)
        table.add_row(
            format_si(epoch_bytes, "B", digits=0),
            format_si(row.throughput_records_per_s, "rec/s"),
            fmt_time(row.sim_seconds),
            fmt_time(lag),
        )
        report.rows.append(
            {"figure": "abl-epoch", "epoch_bytes": epoch_bytes,
             "throughput": row.throughput_records_per_s,
             "trigger_lag_mean_s": lag}
        )
    report.tables.append(table)
    return report


register_grid(SweepGrid(
    name="abl-epoch",
    description="ablation: SSB epoch length",
    axes=(("epoch_bytes", (16 * 1024, 64 * 1024, BENCH_EPOCH_BYTES, 1024 * 1024)),),
    fixed={"nodes": 4, "threads": 4},
    cell=_abl_epoch_cell,
    report=_abl_epoch_report,
))


def _abl_exec_cell(point: dict, fixed: dict):
    return end_to_end_scenario_cell(
        "slash", "ysb", fixed["nodes"], fixed["threads"],
        workload_overrides={"records_per_thread": fixed["records_per_thread"]},
        strategy=point["strategy"],
    )


def _abl_exec_report(run: GridRun) -> Report:
    report = Report("ablation: execution strategy")
    table = TextTable(
        "YSB throughput, compiled vs interpreted pipelines (Slash)",
        ["strategy", "throughput", "vs compiled"],
    )
    cell_results = run.iter_results()
    results = {}
    for strategy in run.axis("strategy"):
        results[strategy] = next(cell_results).throughput_records_per_s
    for strategy, throughput in results.items():
        table.add_row(
            strategy,
            format_si(throughput, "rec/s"),
            f"{throughput / results['compiled'] * 100:.0f}%",
        )
        report.rows.append(
            {"figure": "abl-exec", "strategy": strategy, "throughput": throughput}
        )
    report.tables.append(table)
    return report


register_grid(SweepGrid(
    name="abl-exec",
    description="ablation: compiled vs interpreted execution",
    axes=(("strategy", ("compiled", "interpreted")),),
    fixed={"nodes": 4, "threads": 4, "records_per_thread": 2500},
    cell=_abl_exec_cell,
    report=_abl_exec_report,
))


def _extra_latency_cell(point: dict, fixed: dict):
    return end_to_end_scenario_cell(
        point["system"], "ysb", fixed["nodes"], fixed["threads"],
        workload_overrides={
            "records_per_thread": fixed["records_per_thread"],
            "batch_records": 800,
        },
    )


def _extra_latency_report(run: GridRun) -> Report:
    report = Report("extra: window trigger lag (YSB, 2 nodes)")
    table = TextTable(
        "mean / max trigger lag per system",
        ["system", "mean lag", "max lag", "throughput"],
    )
    results = run.iter_results()
    for system in run.axis("system"):
        row = next(results)
        mean_lag = row.extra.get("trigger_lag_mean_s", 0.0)
        max_lag = row.extra.get("trigger_lag_max_s", 0.0)
        table.add_row(
            system,
            fmt_time(mean_lag),
            fmt_time(max_lag),
            format_si(row.throughput_records_per_s, "rec/s"),
        )
        report.rows.append(
            {"figure": "extra-latency", "system": system,
             "trigger_lag_mean_s": mean_lag, "trigger_lag_max_s": max_lag}
        )
    report.tables.append(table)
    report.notes.append(
        "Slash's lag is the price of epoch-lazy merging (tunable via "
        "epoch_bytes, see the epoch ablation); the re-partitioning engines "
        "trigger eagerly per record, and Flink's lag exceeds UpPar's "
        "through IPoIB latency and buffer timeouts."
    )
    return report


register_grid(SweepGrid(
    name="extra-latency",
    description="extra: window trigger lag per system",
    axes=(
        ("system", EngineSet(
            include=("slash", "uppar", "flink"), capabilities=(CAP_SCALE_OUT,)
        )),
    ),
    fixed={"nodes": 2, "threads": 10, "records_per_thread": 6_000},
    cell=_extra_latency_cell,
    report=_extra_latency_report,
))


def _abl_signal_cell(point: dict, fixed: dict):
    return transfer_cell(
        "slash",
        workload_overrides={"records_per_thread": fixed["records_per_thread"]},
        threads=fixed["threads"], buffer_bytes=fixed["buffer_bytes"],
        signal_writes=point["signal_writes"],
    )


def _abl_signal_report(run: GridRun) -> Report:
    report = Report("ablation: selective signaling")
    table = TextTable(
        "RO throughput, unsignaled vs signaled WRITEs (16 KiB buffers)",
        ["write completions", "throughput", "sender cyc/rec"],
    )
    results = run.iter_results()
    for signal_writes in run.axis("signal_writes"):
        result = next(results)
        table.add_row(
            "signaled" if signal_writes else "selective (unsignaled)",
            fmt_rate(result.throughput_bytes_per_s),
            f"{result.sender_counters.cycles_per_record:.1f}",
        )
        report.rows.append(
            {"figure": "abl-signaling", "signaled": signal_writes,
             "throughput_bytes_per_s": result.throughput_bytes_per_s}
        )
    report.tables.append(table)
    return report


register_grid(SweepGrid(
    name="abl-signal",
    description="ablation: selective signaling",
    axes=(("signal_writes", (False, True)),),
    fixed={"threads": 2, "buffer_bytes": 16384, "records_per_thread": 120_000},
    cell=_abl_signal_cell,
    report=_abl_signal_report,
))
