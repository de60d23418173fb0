"""Multi-run acceptance suites: elastic, chaos, and overload batteries.

Unlike the declarative figure grids (one independent cell per sweep
point, see :mod:`repro.grid`), these suites are inherently *sequential*
protocols: a baseline run pins the ground truth and the simulated
horizon, later runs are parameterised by what the baseline measured
(fault plans placed on the horizon, migration instants, calibrated SLOs
and ingest rates), and hard acceptance checks — zero lost results,
same-seed determinism, differential oracles — raise on violation rather
than merely reporting.  The latency statistics they report come from the
shared :mod:`repro.metrics.slo` helpers.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.common.units import fmt_rate_records, fmt_time
from repro.metrics.reporting import (
    Report,
    TextTable,
    fault_timeline_table,
    format_si,
)
from repro.metrics.slo import percentile, window_lags
from repro.runtime import diff_aggregates, make_workload


# ---------------------------------------------------------------------------
# Elastic: live partition migration + the oracle that keeps it honest
# ---------------------------------------------------------------------------

def run_elastic(
    system: str = "slash",
    workload_name: str = "ysb",
    nodes: int = 2,
    threads: int = 4,
    records_per_thread: int = 2500,
    seed: int = 11,
    strategy: str = "both",
    action: str = "join",
    rescale_frac: float = 0.35,
    add_nodes: int = 1,
    drain_node: Optional[int] = None,
    fluid_ranges: Optional[int] = None,
    fluid_spread: Optional[float] = None,
) -> Report:
    """Live-rescale experiment: migrate mid-run, diff against static.

    One static baseline pins the ground truth and the horizon; each
    requested migration strategy then reruns the *same* seeded scenario
    with a rescale scheduled at ``rescale_frac`` of the horizon and the
    runtime sanitizer on.  Every migrated run must reproduce the static
    aggregates exactly (the migration-correctness oracle); a divergence
    raises :class:`StateError` and fails the CLI run.

    The headline metric is the **migration-window latency spike**: the
    p50/p99 of window-trigger lag from the first migration stall onward,
    against the static run's p99.  All-at-once pays one bulk stall;
    Megaphone-style fluid splits it into per-key-range sub-moves, so its
    p99 spike stays a fraction of the bulk one.
    """
    from repro.common.errors import StateError
    from repro.core.system import CAP_ELASTIC, MIGRATION_STRATEGIES
    from repro.runtime import REGISTRY, Scenario, run_scenario
    from repro.runtime.oracle import diff_results

    if strategy == "both":
        strategies = list(MIGRATION_STRATEGIES)
    else:
        # Unknown names flow into attach_elastic for the did-you-mean.
        strategies = [strategy]
    if not 0.0 < rescale_frac < 1.0:
        raise StateError(
            f"rescale_frac must be inside (0, 1), got {rescale_frac}"
        )
    # Unknown or non-elastic engine: fail before the static baseline runs.
    REGISTRY.require(system, CAP_ELASTIC)

    report = Report(f"elastic: {action} rescale ({system}, {workload_name})")
    rescale_overrides: dict = {"action": action, "add_nodes": add_nodes}
    if drain_node is not None:
        rescale_overrides["drain_node"] = drain_node
    elif action == "leave":
        rescale_overrides["drain_node"] = nodes - 1
    if fluid_ranges is not None:
        rescale_overrides["fluid_ranges"] = fluid_ranges
    if fluid_spread is not None:
        rescale_overrides["fluid_spread"] = fluid_spread

    base = Scenario(
        engine=system,
        workload=workload_name,
        nodes=nodes,
        threads=threads,
        workload_overrides={"records_per_thread": records_per_thread},
        seed=seed,
    )
    static = run_scenario(base)
    horizon = static.sim_seconds
    static_lags = window_lags(static)
    static_p99 = percentile(static_lags, 0.99)

    table = TextTable(
        f"migration-window latency (baseline p99 {fmt_time(static_p99)}, "
        f"rescale at {rescale_frac:.0%} of {fmt_time(horizon)})",
        ["strategy", "moved", "stalls", "window p50", "window p99",
         "p99 spike", "oracle"],
    )
    spikes: dict[str, float] = {}
    failures: list[str] = []
    for migration_strategy in strategies:
        treatment = dataclasses.replace(
            base,
            rescale_at=horizon * rescale_frac,
            migration_strategy=migration_strategy,
            rescale_overrides=dict(rescale_overrides),
            sanitize=True,
        )
        migrated = run_scenario(treatment)
        diff = diff_results(static, migrated)
        info = migrated.extra.get("elastic", {})
        lags = window_lags(migrated, info.get("started_at_s"))
        p50 = percentile(lags, 0.50)
        p99 = percentile(lags, 0.99)
        spike = p99 / static_p99 if static_p99 else float("inf")
        spikes[migration_strategy] = p99
        if not diff.ok:
            failures.append(
                f"{migration_strategy}: {diff.describe()} — replay: "
                + treatment.repro_command()
            )
        table.add_row(
            migration_strategy,
            format_si(info.get("moved_bytes", 0), "B"),
            len(info.get("events", [])),
            fmt_time(p50),
            fmt_time(p99),
            f"{spike:.1f}x",
            "PASS" if diff.ok else "FAIL",
        )
        report.rows.append({
            "figure": "elastic",
            "system": system,
            "workload": workload_name,
            "nodes": nodes,
            "threads": threads,
            "seed": seed,
            "action": action,
            "strategy": migration_strategy,
            "rescale_at_s": horizon * rescale_frac,
            "moved_bytes": info.get("moved_bytes", 0),
            "moves_completed": info.get("moves_completed"),
            "rounds": len(info.get("events", [])),
            "window_p50_s": p50,
            "window_p99_s": p99,
            "static_p99_s": static_p99,
            "p99_spike": spike,
            "oracle_ok": diff.ok,
            "ownership_checks": migrated.extra.get(
                "sanitizer_checks", {}
            ).get("ownership-exactness", 0),
            "autoscale": info.get("autoscale"),
        })
    report.tables.append(table)
    if "fluid" in spikes and "all-at-once" in spikes:
        fluid_wins = spikes["fluid"] < spikes["all-at-once"]
        report.notes.append(
            "fluid p99 "
            + ("<" if fluid_wins else ">=")
            + " all-at-once p99 at equal state size: "
            + ("the Megaphone effect — sub-moves amortise the stall."
               if fluid_wins else
               "NOT the expected ordering; state too small for the "
               "per-round floor — grow --records.")
        )
    report.notes.append(
        "oracle: every migrated run's (window, key) aggregates must equal "
        "the static run's exactly; the sanitizer's ownership-exactness "
        "invariant (single leader per range, no delta applied twice) is "
        "live during every migrated run."
    )
    if failures:
        raise StateError(
            "elastic oracle failed — migrated run diverged from the "
            "static baseline: " + "; ".join(failures) + "\n" + report.render()
        )
    return report


# ---------------------------------------------------------------------------
# Chaos: fault injection + epoch-based recovery
# ---------------------------------------------------------------------------

def run_chaos(
    fault: str = "leader-crash",
    seed: int = 7,
    nodes: int = 3,
    threads: int = 2,
    workload_name: str = "ysb",
    records_per_thread: int = 1500,
    verify_determinism: bool = True,
    system: str = "slash",
    strategy: str = "both",
    elastic: Optional[str] = None,
) -> Report:
    """One chaos cell: fail-free baseline, faulted runs, invariant checks.

    The baseline run sets the simulated horizon the fault plan is placed
    on and provides the ground-truth output.  Each faulted run must (a)
    finish, (b) produce *exactly* the baseline's window results — the
    zero-lost-results invariant — and (c) when ``verify_determinism`` is
    set, reproduce itself byte-identically from the same seed and plan.
    A violation raises :class:`FaultError`, failing the CLI run.

    ``strategy`` names the recovery strategy ("epoch-buddy" or
    "async-snapshot") or "both" (the default): every strategy the engine
    supports runs against the *same* plan and baseline, and the report
    grows a side-by-side comparison of detection/MTTR latencies,
    snapshot overhead, and recovered records.  An engine with no
    recovery plane (Flink) runs its data-plane faults once, unstrategized.

    ``elastic`` names a migration strategy ("all-at-once" or "fluid"):
    every *faulted* run additionally performs a live join-rescale mid
    horizon, so faults land during or around an active migration — the
    hardest cell of the matrix.  The baseline stays fail-free *and*
    static, so zero-lost-results then asserts that chaos plus migration
    together still reproduce the untouched run exactly.
    """
    from repro.common.errors import FaultError
    from repro.faults.plan import FaultPlan, fault_tunables
    from repro.runtime import (
        CAP_FAULT_INJECTION,
        RECOVERY_STRATEGIES,
        REGISTRY,
        Scenario,
        run_scenario,
    )

    # Fail fast on engines with no fault-injection plane (capability
    # error before any simulation runs, not a mid-run crash).
    REGISTRY.require(system, CAP_FAULT_INJECTION)
    supported = REGISTRY.create(system, nodes).supported_recovery_strategies
    if strategy == "both":
        strategies = [s for s in RECOVERY_STRATEGIES if s in supported] or [None]
    else:
        # An unknown or unsupported name flows into attach_faults, which
        # raises the CapabilityError naming what the engine *can* do.
        strategies = [strategy]

    tag = f" + {elastic} rescale" if elastic else ""
    report = Report(f"chaos: {fault}{tag} (seed {seed})")
    base = Scenario(
        engine=system,
        workload=workload_name,
        nodes=nodes,
        threads=threads,
        workload_overrides={"records_per_thread": records_per_thread},
    )
    baseline = run_scenario(base)
    horizon = baseline.sim_seconds
    rescale = dict(
        rescale_at=horizon * 0.3,
        migration_strategy=elastic,
        rescale_overrides={"action": "join", "add_nodes": 1},
    ) if elastic else {}
    plan = FaultPlan.preset(fault, seed, nodes, horizon)
    plan.validate(nodes, horizon_s=horizon)

    events_table = TextTable(
        f"injected faults (seed {seed}, horizon {fmt_time(horizon)})",
        ["kind", "at", "target", "duration"],
    )
    for event in plan:
        events_table.add_row(
            event.kind.value, fmt_time(event.at_s), event.target,
            fmt_time(event.duration_s) if event.duration_s else "-",
        )
    report.tables.append(events_table)

    per_strategy: list[dict] = []
    for recovery in strategies:
        treatment = dataclasses.replace(
            base,
            fault_plan=plan,
            fault_overrides=fault_tunables(horizon, recovery),
            recovery_strategy=recovery,
            **rescale,
        )
        faulted = run_scenario(treatment)
        missing, extra, mismatched = diff_aggregates(
            baseline.aggregates, faulted.aggregates
        )
        zero_lost = not (missing or extra or mismatched)

        deterministic = None
        if verify_determinism:
            repeat = run_scenario(treatment)
            deterministic = (
                repeat.aggregates == faulted.aggregates
                and repeat.sim_seconds == faulted.sim_seconds
                and repeat.emitted == faulted.emitted
            )

        faults_info = faulted.extra.get("faults", {})
        label = recovery or "n/a (data-plane only)"
        suffix = f" [{label}]" if len(strategies) > 1 or recovery else ""
        outcome = TextTable(
            f"recovery outcome{suffix}",
            ["metric", "value"],
        )
        outcome.add_row("recovery strategy", label)
        outcome.add_row("baseline windows", len(baseline.aggregates))
        outcome.add_row("faulted windows", len(faulted.aggregates))
        outcome.add_row("lost / extra / mismatched",
                        f"{len(missing)} / {len(extra)} / {len(mismatched)}")
        outcome.add_row("zero-lost-results", "PASS" if zero_lost else "FAIL")
        if deterministic is not None:
            outcome.add_row("same-seed determinism",
                            "PASS" if deterministic else "FAIL")
        outcome.add_row("sim time (baseline)", fmt_time(baseline.sim_seconds))
        outcome.add_row("sim time (faulted)", fmt_time(faulted.sim_seconds))
        outcome.add_row("retransmits", faulted.counters.retransmits)
        outcome.add_row("retransmitted bytes", format_si(
            faulted.counters.retransmitted_bytes, "B"))
        outcome.add_row("checkpoints taken/committed",
                        f"{faults_info.get('checkpoints_taken', 0)}/"
                        f"{faults_info.get('checkpoints_committed', 0)}")
        if faults_info.get("snapshot_rounds_started"):
            outcome.add_row(
                "snapshot rounds started/complete",
                f"{faults_info.get('snapshot_rounds_started', 0)}/"
                f"{faults_info.get('snapshot_rounds_complete', 0)}",
            )
        membership = faults_info.get("membership", {})
        if membership:
            outcome.add_row(
                "heartbeats sent/delivered/lost",
                f"{membership.get('heartbeats_sent', 0)}/"
                f"{membership.get('heartbeats_delivered', 0)}/"
                f"{membership.get('heartbeats_lost', 0)}",
            )
            outcome.add_row(
                "fence proposals (rejected/aborted)",
                f"{membership.get('fence_proposals', 0)} "
                f"({membership.get('fences_rejected', 0)}/"
                f"{membership.get('fences_aborted', 0)})",
            )
        split_brain = faults_info.get("terms", {}).get("split_brain", [])
        outcome.add_row(
            "split-brain commits",
            "NONE" if not split_brain else f"{split_brain!r}",
        )
        migration = faulted.extra.get("elastic")
        if migration is not None:
            outcome.add_row(
                "migration moves (done/rolled back)",
                f"{migration.get('moves_completed', 0)}/"
                f"{migration.get('moves_rolled_back', 0)}",
            )
            outcome.add_row(
                "migrated bytes",
                format_si(migration.get("moved_bytes", 0), "B"),
            )
        for victim, info in sorted(faults_info.get("crashes", {}).items()):
            outcome.add_row(f"exec {victim} recovery time",
                            fmt_time(info.get("recovery_s", 0.0)))
            outcome.add_row(f"exec {victim} promoted to",
                            info.get("promoted", "-"))
            outcome.add_row(f"exec {victim} replayed batches",
                            info.get("replayed_batches", 0))
        report.tables.append(outcome)
        if faults_info.get("crashes"):
            report.tables.append(fault_timeline_table(faults_info))

        crashes = faults_info.get("crashes", {})
        recovered_records = sum(
            info.get("replayed_records", 0) for info in crashes.values()
        )
        mttr = max(
            (info["mttr_s"] for info in crashes.values() if "mttr_s" in info),
            default=None,
        )
        detection = max(
            (info["detection_s"] for info in crashes.values()
             if "detection_s" in info),
            default=None,
        )
        per_strategy.append({
            "strategy": recovery,
            "label": label,
            "treatment": treatment,
            "zero_lost": zero_lost,
            "deterministic": deterministic,
            "missing": missing,
            "extra": extra,
            "mismatched": mismatched,
            "split_brain": split_brain,
            "faulted": faulted,
            "faults_info": faults_info,
            "detection_s": detection,
            "mttr_s": mttr,
            "recovered_records": recovered_records,
        })

        report.rows.append({
            "figure": "chaos",
            "fault": fault,
            "system": system,
            "seed": seed,
            "nodes": nodes,
            "threads": threads,
            "workload": workload_name,
            "recovery_strategy": recovery,
            "zero_lost": zero_lost,
            "deterministic": deterministic,
            "missing": len(missing),
            "extra": len(extra),
            "mismatched": len(mismatched),
            "baseline_sim_seconds": baseline.sim_seconds,
            "faulted_sim_seconds": faulted.sim_seconds,
            "retransmits": faulted.counters.retransmits,
            "retransmitted_bytes": faulted.counters.retransmitted_bytes,
            "snapshot_overhead_bytes":
                faults_info.get("checkpoint_bytes_replicated", 0),
            "recovered_records": recovered_records,
            "detection_s": detection,
            "mttr_s": mttr,
            "faults": faults_info,
            "elastic": elastic,
            "migration": migration,
        })

    if len(per_strategy) > 1:
        comparison = TextTable(
            "recovery strategy comparison (same plan, same seed)",
            ["strategy", "detection", "mttr", "ckpts", "snapshot overhead",
             "recovered records", "sim time"],
        )
        for entry in per_strategy:
            info = entry["faults_info"]
            comparison.add_row(
                entry["label"],
                fmt_time(entry["detection_s"]) if entry["detection_s"]
                is not None else "-",
                fmt_time(entry["mttr_s"]) if entry["mttr_s"] is not None
                else "-",
                f"{info.get('checkpoints_taken', 0)}/"
                f"{info.get('checkpoints_committed', 0)}",
                format_si(info.get("checkpoint_bytes_replicated", 0), "B"),
                entry["recovered_records"],
                fmt_time(entry["faulted"].sim_seconds),
            )
        report.tables.append(comparison)

    report.notes.append(
        "zero-lost-results compares every (window, key) aggregate of the "
        "faulted run against the fail-free baseline (exact for ints, "
        "1e-9 relative for floats)."
    )

    for entry in per_strategy:
        tag = f" [{entry['label']}]" if entry["strategy"] else ""
        for broken, complaint in (
            (not entry["zero_lost"],
             f"lost results: {len(entry['missing'])} missing, "
             f"{len(entry['extra'])} extra, {len(entry['mismatched'])} mismatched"),
            (entry["deterministic"] is False,
             "is not reproducible: two runs with the same seed and plan diverged"),
            (entry["split_brain"],
             "committed deltas for the same partition under the same term: "
             f"{entry['split_brain']!r}"),
        ):
            if broken:
                raise FaultError(
                    f"chaos {fault!r} (seed {seed}){tag} {complaint}\n"
                    + report.render()
                    + "\nreplay: " + entry["treatment"].repro_command()
                )
    return report


# ---------------------------------------------------------------------------
# Overload: flash-crowd backpressure, SLO-aware shedding, gray failures
# ---------------------------------------------------------------------------

def run_overload(
    system: str = "slash",
    workload_name: str = "ysb",
    nodes: int = 3,
    threads: int = 2,
    records_per_thread: int = 1000,
    batch_records: Optional[int] = None,
    seed: int = 11,
    slo_ms: Optional[float] = None,
    rate_factor: float = 2.0,
    policy: str = "all",
    tenants: int = 4,
    zipf: float = 0.0,
    fault: Optional[str] = "slow-node",
    flash_at_frac: float = 0.5,
    flash_magnitude: float = 3.0,
) -> Report:
    """Flash-crowd experiment: shed to the SLO, account for every record.

    An unpaced baseline run measures the sustainable per-thread ingest
    rate and pins the ground-truth aggregates.  The offered load is then
    paced at ``rate_factor``x that rate with a flash-crowd envelope — a
    no-shed run must *violate* the declared p99 SLO (the overload is
    real), and every shedding policy must bring p99 back under it.  When
    ``slo_ms`` is not given it is declared as half the no-shed p99, the
    midpoint between "trivially met" and "unmeetable".

    Every shedding run records its per-batch keep masks; the harness
    rebuilds the admitted-only flows, runs the sequential reference
    oracle over them, and requires exact agreement — zero lost results
    among non-shed records, on top of the coordinator's exact
    ``offered = admitted + shed`` accounting.  A per-tenant table shows
    each policy's shed share against the tenant's traffic share.

    ``fault`` ("slow-node" or "jitter") adds the gray-failure section:
    the same paced scenario under the fault preset, with straggler
    mitigation on vs off — the mitigated run must not be slower at p99.
    """
    from repro.common.errors import StateError
    from repro.core.system import CAP_OVERLOAD, SHED_POLICIES
    from repro.runtime import REGISTRY, Scenario, run_scenario
    from repro.runtime.oracle import diff_results

    REGISTRY.require(system, CAP_OVERLOAD)
    if policy == "all":
        policies = list(SHED_POLICIES)
    elif policy == "none":
        policies = []
    else:
        # Unknown names flow into attach_overload for the did-you-mean.
        policies = [policy]

    report = Report(
        f"overload: flash crowd at {rate_factor:g}x sustainable "
        f"({system}, {workload_name})"
    )
    if batch_records is None:
        # Admission (and therefore shedding) is per batch: keep enough
        # batches per thread that partial-pressure shedding has texture
        # and the straggler EWMA has samples to converge on.
        batch_records = max(25, records_per_thread // 20)
    workload_overrides: dict = {
        "records_per_thread": records_per_thread,
        "batch_records": batch_records,
    }
    if zipf > 0:
        workload_overrides["zipf_z"] = zipf

    base = Scenario(
        engine=system, workload=workload_name, nodes=nodes, threads=threads,
        workload_overrides=workload_overrides, seed=seed,
    )

    def scenario(shed_policy=None, fault_plan=None, **overload_fields) -> Scenario:
        overload_fields.setdefault("tenants", tenants)
        return dataclasses.replace(
            base, shed_policy=shed_policy, fault_plan=fault_plan,
            overload_overrides=overload_fields,
        )

    baseline = run_scenario(base)
    horizon = baseline.sim_seconds
    sustainable = records_per_thread / horizon
    rate = sustainable * rate_factor
    envelope = dict(
        ingest_rate_records_per_s=rate,
        flash_at_frac=flash_at_frac,
        flash_magnitude=flash_magnitude,
    )

    # The overload must be real: without shedding, the declared SLO is
    # violated.  slo_p99_ms only affects the verdict, not the dynamics,
    # so the no-shed run doubles as the SLO calibration run.
    noshed = run_scenario(scenario(slo_p99_ms=1.0, **envelope))
    no = noshed.extra["overload"]
    if slo_ms is None:
        slo_ms = no["delay_p99_ms"] * 0.5
    if slo_ms <= 0:
        raise StateError(
            f"no-shed p99 is {no['delay_p99_ms']:.6f} ms at "
            f"{rate_factor:g}x the sustainable rate — the workload is "
            "not overloaded; raise --rate-factor"
        )

    table = TextTable(
        f"flash crowd at {rate_factor:g}x sustainable "
        f"(SLO p99 {slo_ms:.4g} ms, sustainable "
        f"{fmt_rate_records(sustainable)})",
        ["policy", "p50", "p99", "p99.9", "shed", "shed %", "backlog",
         "SLO", "oracle"],
    )

    def delay_row(label, info, oracle_ok):
        shed_pct = 100.0 * info["shed"] / info["offered"] if info["offered"] else 0.0
        table.add_row(
            label,
            f"{info['delay_p50_ms']:.4g} ms",
            f"{info['delay_p99_ms']:.4g} ms",
            f"{info['delay_p999_ms']:.4g} ms",
            info["shed"],
            f"{shed_pct:.1f}%",
            info["max_backlog_records"],
            "MET" if info["delay_p99_ms"] <= slo_ms else "VIOLATED",
            oracle_ok,
        )

    delay_row("no-shed", no, "n/a")
    failures: list[str] = []
    if no["delay_p99_ms"] <= slo_ms:
        failures.append(
            f"no-shed baseline met the {slo_ms:.4g} ms SLO "
            f"(p99 {no['delay_p99_ms']:.4g} ms) — the overload is not real"
        )

    tenant_table = TextTable(
        f"per-tenant fairness ({tenants} tenants, key-space striping)",
        ["policy", "tenant", "offered", "shed", "traffic share", "shed share"],
    )
    policy_infos: dict[str, dict] = {}
    for shed_policy in policies:
        shedded = run_scenario(scenario(
            shed_policy=shed_policy, slo_p99_ms=slo_ms,
            record_masks=True, **envelope,
        ))
        info = shedded.extra["overload"]
        policy_infos[shed_policy] = info

        # Differential oracle: the reference engine over the admitted-only
        # flows must reproduce the shedding run exactly — nothing besides
        # the logged shed records went missing.
        masks = shedded.extra.get("overload_keep_masks", {})
        workload = make_workload(workload_name, seed=seed, **workload_overrides)
        flows = workload.flows(nodes, threads)
        admitted_flows = {}
        for (node, thread), flow in flows.items():
            admitted_flows[(node, thread)] = [
                (stream, batch.select(masks[(node, thread, i)])
                 if (node, thread, i) in masks else batch)
                for i, (stream, batch) in enumerate(flow)
            ]
        oracle = REGISTRY.create("reference").run(
            workload.build_query(), admitted_flows
        )
        diff = diff_results(oracle, shedded)
        if not diff.ok:
            failures.append(f"{shed_policy}: {diff.describe()}")
        total = sum(len(b) for f in flows.values() for _s, b in f)
        if info["offered"] != total:
            failures.append(
                f"{shed_policy}: offered {info['offered']} != "
                f"{total} records generated"
            )
        if info["offered"] != info["admitted"] + info["shed"]:
            failures.append(
                f"{shed_policy}: offered {info['offered']} != admitted "
                f"{info['admitted']} + shed {info['shed']}"
            )
        if info["delay_p99_ms"] > slo_ms:
            failures.append(
                f"{shed_policy}: p99 {info['delay_p99_ms']:.4g} ms "
                f"violates the {slo_ms:.4g} ms SLO"
            )
        delay_row(shed_policy, info, "PASS" if diff.ok else "FAIL")

        offered_total = sum(info["tenant_offered"]) or 1
        shed_total = sum(info["tenant_shed"]) or 1
        for tenant in range(tenants):
            tenant_offered = info["tenant_offered"][tenant]
            tenant_shed = info["tenant_shed"][tenant]
            tenant_table.add_row(
                shed_policy, tenant, tenant_offered, tenant_shed,
                f"{100.0 * tenant_offered / offered_total:.1f}%",
                f"{100.0 * tenant_shed / shed_total:.1f}%",
            )
        report.rows.append({
            "figure": "overload",
            "system": system,
            "workload": workload_name,
            "nodes": nodes,
            "threads": threads,
            "seed": seed,
            "policy": shed_policy,
            "rate_factor": rate_factor,
            "slo_p99_ms": slo_ms,
            "offered": info["offered"],
            "admitted": info["admitted"],
            "shed": info["shed"],
            "delay_p50_ms": info["delay_p50_ms"],
            "delay_p99_ms": info["delay_p99_ms"],
            "delay_p999_ms": info["delay_p999_ms"],
            "slo_met": info["delay_p99_ms"] <= slo_ms,
            "noshed_p99_ms": no["delay_p99_ms"],
            "tenant_offered": info["tenant_offered"],
            "tenant_shed": info["tenant_shed"],
            "oracle_ok": diff.ok,
        })
    report.tables.append(table)
    if policies:
        report.tables.append(tenant_table)

    if fault is not None:
        from repro.faults.plan import FaultEvent, FaultKind, FaultPlan

        mitigation_policy = policies[0] if policies else "drop-oldest"
        from repro.common.suggest import unknown_name_message

        if fault not in ("slow-node", "jitter"):
            raise StateError(unknown_name_message(
                "gray fault", fault, ("slow-node", "jitter")
            ))
        # Pin the gray-fault window over the whole processing phase
        # (the randomized presets stay the chaos matrix's concern): the
        # victim runs degraded for essentially the entire run, so the
        # straggler detector has a signal to converge on.
        kind = FaultKind(fault)
        plan = FaultPlan([FaultEvent(
            kind, at_s=horizon * 0.02, target=0,
            duration_s=horizon * 0.95,
            factor=0.25 if kind is FaultKind.SLOW_NODE else 8.0,
        )], seed=seed)
        plan.validate(nodes, horizon_s=horizon)
        # The gray section measures *degradation*, not general overload:
        # its SLO sits above the healthy cluster's no-shed p99, so an
        # unfaulted run would sail through without shedding a record —
        # only the straggler pushes the tail out, and only shedding
        # harder at the straggler (mitigation) can pull it back.
        gray_slo_ms = no["delay_p99_ms"] * 2.0
        gray = TextTable(
            f"gray failure: {fault}, {mitigation_policy} shedding "
            f"(SLO p99 {gray_slo_ms:.4g} ms)",
            ["mitigation", "p99", "shed", "stragglers flagged", "SLO"],
        )
        gray_p99: dict[bool, float] = {}
        for mitigation in (False, True):
            faulted = run_scenario(scenario(
                shed_policy=mitigation_policy, fault_plan=plan,
                slo_p99_ms=gray_slo_ms, mitigation=mitigation,
                straggler_min_samples=3, **envelope,
            ))
            info = faulted.extra["overload"]
            gray_p99[mitigation] = info["delay_p99_ms"]
            gray.add_row(
                "on" if mitigation else "off",
                f"{info['delay_p99_ms']:.4g} ms",
                info["shed"],
                info["straggler"]["ever_flagged"],
                "MET" if info["delay_p99_ms"] <= gray_slo_ms else "VIOLATED",
            )
            report.rows.append({
                "figure": "overload-gray",
                "system": system,
                "fault": fault,
                "seed": seed,
                "policy": mitigation_policy,
                "mitigation": mitigation,
                "delay_p99_ms": info["delay_p99_ms"],
                "shed": info["shed"],
                "stragglers": info["straggler"]["ever_flagged"],
            })
        report.tables.append(gray)
        if gray_p99[True] > gray_p99[False]:
            failures.append(
                f"straggler mitigation made p99 worse under {fault}: "
                f"{gray_p99[True]:.4g} ms on vs {gray_p99[False]:.4g} ms off"
            )
        else:
            reduction = (
                (gray_p99[False] - gray_p99[True]) / gray_p99[False]
                if gray_p99[False] else 0.0
            )
            report.notes.append(
                f"straggler mitigation under {fault}: p99 "
                f"{gray_p99[False]:.4g} ms -> {gray_p99[True]:.4g} ms "
                f"({reduction:.1%} reduction)"
            )

    report.notes.append(
        "oracle: the sequential reference engine over the admitted-only "
        "flows (rebuilt from the recorded keep masks) must reproduce each "
        "shedding run's (window, key) aggregates exactly — zero lost "
        "results among non-shed records, offered = admitted + shed "
        "accounted per record."
    )
    if failures:
        raise StateError(
            "overload acceptance failed: " + "; ".join(failures)
            + "\n" + report.render()
        )
    return report
