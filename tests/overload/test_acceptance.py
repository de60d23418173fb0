"""End-to-end overload acceptance: shedding meets the SLO the no-shed
baseline violates, every record is accounted for, and the conservation
invariant holds under combined gray faults."""

import pytest

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.harness.suites import run_overload
from repro.runtime import Scenario, run_scenario


@pytest.fixture(scope="module")
def overload_report():
    # The CI smoke sizing: small enough for a test, big enough that the
    # flash crowd actually queues.
    return run_overload(records_per_thread=1000, seed=11)


class TestFlashCrowdAcceptance:
    def test_no_shed_violates_and_every_policy_meets_the_slo(
        self, overload_report
    ):
        rows = [r for r in overload_report.rows if r["figure"] == "overload"]
        assert {r["policy"] for r in rows} == {
            "drop-oldest", "probabilistic", "fair",
        }
        for row in rows:
            # The derived SLO sits below the no-shed p99 (the overload
            # is real) and above every shedding run's p99.
            assert row["noshed_p99_ms"] > row["slo_p99_ms"]
            assert row["slo_met"], row
            assert row["delay_p99_ms"] <= row["slo_p99_ms"]

    def test_shed_accounting_is_exact_and_oracle_clean(self, overload_report):
        for row in overload_report.rows:
            if row["figure"] != "overload":
                continue
            assert row["shed"] > 0  # at 2x sustainable, shedding engaged
            assert row["offered"] == row["admitted"] + row["shed"]
            assert sum(row["tenant_offered"]) == row["offered"]
            assert sum(row["tenant_shed"]) == row["shed"]
            assert row["oracle_ok"] is True

    def test_per_tenant_shed_share_tracks_traffic_share(self, overload_report):
        (fair,) = [
            r for r in overload_report.rows
            if r["figure"] == "overload" and r["policy"] == "fair"
        ]
        offered_total = sum(fair["tenant_offered"])
        shed_total = sum(fair["tenant_shed"])
        for offered, shed in zip(fair["tenant_offered"], fair["tenant_shed"]):
            traffic_share = offered / offered_total
            shed_share = shed / shed_total
            assert shed_share == pytest.approx(traffic_share, abs=0.05)

    def test_straggler_mitigation_does_not_regress_p99(self, overload_report):
        gray = {
            r["mitigation"]: r for r in overload_report.rows
            if r["figure"] == "overload-gray"
        }
        assert set(gray) == {False, True}
        assert gray[True]["delay_p99_ms"] <= gray[False]["delay_p99_ms"]
        # The slowed victim (executor 0) was actually detected.
        assert 0 in gray[True]["stragglers"]


class TestConservationUnderCombinedGrayFaults:
    def test_credit_starvation_plus_slow_node_conserves_every_record(self):
        # Satellite (d): the backpressure books must balance even when a
        # starved downstream (credit stalls folded into the delay
        # estimate) and a slowed node (straggler thresholds) are both
        # distorting admission at once.
        plan = FaultPlan([
            FaultEvent(
                FaultKind.CREDIT_STARVATION, at_s=0.5e-4, target=1,
                duration_s=2e-4,
            ),
            FaultEvent(
                FaultKind.SLOW_NODE, at_s=0.5e-4, target=0,
                duration_s=5e-3, factor=0.25,
            ),
        ], seed=3)
        records, nodes, threads = 600, 3, 2
        result = run_scenario(Scenario(
            engine="slash", workload="ysb", nodes=nodes, threads=threads,
            seed=3, sanitize=True, fault_plan=plan,
            workload_overrides={
                "records_per_thread": records, "batch_records": 50,
            },
            slo_p99_ms=0.005,
            shed_policy="probabilistic",
            overload_overrides={
                "ingest_rate_records_per_s": 5e6,
                "flash_at_frac": 0.5,
                "flash_magnitude": 3.0,
            },
        ))
        info = result.extra["overload"]
        assert info["offered"] == nodes * threads * records
        assert info["offered"] == info["admitted"] + info["shed"]
        checks = result.extra["sanitizer_checks"]
        assert checks["backpressure-conservation"] > 0
        assert checks["no-silent-drop"] == nodes
