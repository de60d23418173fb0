"""End-to-end fault-injection scenarios against the Slash engine.

Each test runs a small YSB deployment twice — once fail-free, once under
an injected fault — and checks the recovery invariants: zero lost window
results, exactly-once delta admission, and seed-reproducibility.
"""

import pytest

from repro.common.errors import FaultError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, fault_tunables
from repro.runtime import REGISTRY, diff_aggregates, make_workload

NODES = 3
THREADS = 2


def _workload():
    return make_workload("ysb", records_per_thread=600, batch_records=150)


def _run_baseline():
    workload = _workload()
    return REGISTRY.create("slash", NODES).run(
        workload.build_query(), workload.flows(NODES, THREADS)
    )


def _run_faulted(plan: FaultPlan, horizon: float):
    workload = _workload()
    engine = REGISTRY.create(
        "slash", NODES, fault_plan=plan, fault_overrides=fault_tunables(horizon)
    )
    return engine.run(workload.build_query(), workload.flows(NODES, THREADS))


@pytest.fixture(scope="module")
def baseline():
    return _run_baseline()


class TestLeaderCrash:
    def test_crash_mid_epoch_loses_zero_windows(self, baseline):
        plan = FaultPlan.preset("leader-crash", 7, NODES, baseline.sim_seconds)
        faulted = _run_faulted(plan, baseline.sim_seconds)
        missing, extra, mismatched = diff_aggregates(
            baseline.aggregates, faulted.aggregates
        )
        assert missing == []
        assert extra == []
        assert mismatched == []
        assert faulted.emitted == baseline.emitted

    def test_recovery_metadata_reported(self, baseline):
        plan = FaultPlan.preset("leader-crash", 7, NODES, baseline.sim_seconds)
        faulted = _run_faulted(plan, baseline.sim_seconds)
        info = faulted.extra["faults"]
        (victim,) = plan.crash_targets()
        crash = info["crashes"][str(victim)]
        assert crash["promoted"] == 0  # lowest surviving id takes over
        assert crash["recovery_s"] > 0.0
        assert info["checkpoints_taken"] >= 1

    def test_same_seed_crash_runs_are_identical(self, baseline):
        plan = FaultPlan.preset("leader-crash", 7, NODES, baseline.sim_seconds)
        first = _run_faulted(plan, baseline.sim_seconds)
        second = _run_faulted(plan, baseline.sim_seconds)
        assert first.aggregates == second.aggregates
        assert first.sim_seconds == second.sim_seconds
        assert first.emitted == second.emitted
        assert first.counters.retransmits == second.counters.retransmits


class TestDuplicateDelta:
    def test_duplicated_chunk_does_not_change_totals(self, baseline):
        # The ledger must admit each (executor, epoch, partition) delta
        # once: re-sent chunks change no CRDT aggregate (YSB counts are
        # ints, so equality here is exact).
        plan = FaultPlan.preset("duplicate-delta", 7, NODES, baseline.sim_seconds)
        faulted = _run_faulted(plan, baseline.sim_seconds)
        assert faulted.extra["faults"]["deltas_duplicated"] >= 1
        assert faulted.aggregates == baseline.aggregates


class TestDropChunk:
    def test_dropped_chunks_are_retransmitted(self, baseline):
        plan = FaultPlan.preset("drop-chunk", 7, NODES, baseline.sim_seconds)
        faulted = _run_faulted(plan, baseline.sim_seconds)
        info = faulted.extra["faults"]
        assert info["writes_dropped"] >= 1
        assert faulted.counters.retransmits >= info["writes_dropped"]
        assert faulted.aggregates == baseline.aggregates


class TestCreditStarvation:
    def test_starved_producers_recover(self, baseline):
        plan = FaultPlan.preset("credit-starvation", 7, NODES, baseline.sim_seconds)
        faulted = _run_faulted(plan, baseline.sim_seconds)
        assert faulted.aggregates == baseline.aggregates


class TestUnsupportedPlans:
    def test_crash_recovery_rejected_for_join_queries(self):
        # Join state is not covered by the checkpoint/replay protocol;
        # the injector must refuse rather than silently lose results.
        workload = make_workload("nb8", records_per_thread=200, batch_records=50)
        plan = FaultPlan(events=(FaultEvent(FaultKind.NODE_CRASH, 1e-6, 1),))
        engine = REGISTRY.create(
            "slash", 2, fault_plan=plan, fault_overrides=fault_tunables(1e-4)
        )
        with pytest.raises(FaultError):
            engine.run(workload.build_query(), workload.flows(2, 1))

    def test_non_crash_faults_allowed_for_join_queries(self):
        workload = make_workload("nb8", records_per_thread=200, batch_records=50)
        base = REGISTRY.create("slash", 2).run(
            workload.build_query(), workload.flows(2, 1)
        )
        plan = FaultPlan.preset("drop-chunk", 3, 2, base.sim_seconds)
        engine = REGISTRY.create(
            "slash", 2, fault_plan=plan,
            fault_overrides=fault_tunables(base.sim_seconds),
        )
        faulted = engine.run(workload.build_query(), workload.flows(2, 1))
        assert faulted.sorted_join_pairs() == base.sorted_join_pairs()


class TestFailFreePath:
    def test_empty_plan_disables_fault_mode(self, baseline):
        workload = _workload()
        engine = REGISTRY.create("slash", NODES, fault_plan=FaultPlan())
        result = engine.run(workload.build_query(), workload.flows(NODES, THREADS))
        assert "faults" not in result.extra
        # Bit-identical to a run with no plan at all.
        assert result.aggregates == baseline.aggregates
        assert result.sim_seconds == baseline.sim_seconds
