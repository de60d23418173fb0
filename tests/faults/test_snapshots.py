"""Async consistent snapshots: oracle tests, strategy gates, invariants.

The tentpole guarantee: a run recovered through Chandy–Lamport marker
rounds (``async-snapshot``) produces *exactly* the results of the
fail-free run — and of the sequential reference oracle — on the same
seed, for Slash and for the crash-recoverable UpPar alike.
"""

import pytest

from repro.common.errors import CapabilityError
from repro.faults.plan import FaultPlan, fault_tunables
from repro.runtime import (
    REGISTRY,
    STRATEGY_ASYNC_SNAPSHOT,
    STRATEGY_EPOCH_BUDDY,
    Scenario,
    diff_aggregates,
    run_scenario,
)

NODES = 3
THREADS = 2
WORKLOAD_OVERRIDES = {"records_per_thread": 600}


def _scenario(engine, plan=None, overrides=None, recovery=None, sanitize=False):
    return Scenario(
        engine=engine,
        workload="ysb",
        nodes=NODES,
        threads=THREADS,
        workload_overrides=dict(WORKLOAD_OVERRIDES),
        fault_plan=plan,
        fault_overrides=dict(overrides or {}),
        recovery_strategy=recovery,
        sanitize=sanitize,
    )


def _faulted(engine, preset, baseline, sanitize=False):
    plan = FaultPlan.preset(preset, 7, NODES, baseline.sim_seconds)
    return run_scenario(_scenario(
        engine, plan, fault_tunables(baseline.sim_seconds, STRATEGY_ASYNC_SNAPSHOT),
        recovery=STRATEGY_ASYNC_SNAPSHOT, sanitize=sanitize,
    ))


@pytest.fixture(scope="module")
def reference():
    return run_scenario(_scenario("reference"))


@pytest.fixture(scope="module")
def slash_baseline():
    return run_scenario(_scenario("slash"))


@pytest.fixture(scope="module")
def uppar_baseline():
    return run_scenario(_scenario("uppar"))


class TestSlashAsyncSnapshot:
    def test_leader_crash_matches_sequential_reference(
        self, slash_baseline, reference
    ):
        faulted = _faulted("slash", "leader-crash", slash_baseline)
        missing, extra, mismatched = diff_aggregates(
            reference.aggregates, faulted.aggregates
        )
        assert missing == []
        assert extra == []
        assert mismatched == []

    def test_cascade_loses_zero_windows(self, slash_baseline):
        faulted = _faulted("slash", "cascade", slash_baseline)
        missing, extra, mismatched = diff_aggregates(
            slash_baseline.aggregates, faulted.aggregates
        )
        assert (missing, extra, mismatched) == ([], [], [])
        assert faulted.emitted == slash_baseline.emitted

    def test_marker_rounds_complete_and_audit(self, slash_baseline):
        faulted = _faulted("slash", "leader-crash", slash_baseline,
                           sanitize=True)
        info = faulted.extra["faults"]
        assert info["strategy"] == STRATEGY_ASYNC_SNAPSHOT
        assert info["snapshot_rounds_started"] >= 1
        assert info["snapshot_rounds_complete"] >= 1
        checks = faulted.extra["sanitizer_checks"]
        assert checks.get("snapshot-consistency", 0) >= 1

    def test_restore_uses_a_complete_round_only(self, slash_baseline):
        """The victim restores from a completed marker round (or the
        initial checkpoint) — never a capture of an aborted round."""
        faulted = _faulted("slash", "leader-crash", slash_baseline)
        info = faulted.extra["faults"]
        (crash,) = info["crashes"].values()
        assert crash["recovery_s"] > 0.0
        assert crash["replayed_batches"] >= 0


class TestUpparAsyncSnapshot:
    def test_leader_crash_matches_sequential_reference(
        self, uppar_baseline, reference
    ):
        faulted = _faulted("uppar", "leader-crash", uppar_baseline)
        missing, extra, mismatched = diff_aggregates(
            reference.aggregates, faulted.aggregates
        )
        assert missing == []
        assert extra == []
        assert mismatched == []

    def test_cascade_matches_sequential_reference(
        self, uppar_baseline, reference
    ):
        faulted = _faulted("uppar", "cascade", uppar_baseline)
        missing, extra, mismatched = diff_aggregates(
            reference.aggregates, faulted.aggregates
        )
        assert (missing, extra, mismatched) == ([], [], [])

    def test_global_restart_metadata(self, uppar_baseline):
        faulted = _faulted("uppar", "leader-crash", uppar_baseline)
        info = faulted.extra["faults"]
        (crash,) = info["crashes"].values()
        assert crash["recovery_s"] > 0.0
        assert crash["replayed_records"] > 0
        assert "checkpoint_boundary" in crash
        # A fenced crash retires the generation and starts a new one.
        assert faulted.extra["generations"] >= 1

    def test_aligned_rounds_pass_the_sanitizer(self, uppar_baseline):
        faulted = _faulted("uppar", "leader-crash", uppar_baseline,
                           sanitize=True)
        info = faulted.extra["faults"]
        assert info["snapshot_rounds_complete"] >= 1
        checks = faulted.extra["sanitizer_checks"]
        assert checks.get("snapshot-consistency", 0) >= 1

    def test_same_seed_runs_are_identical(self, uppar_baseline):
        first = _faulted("uppar", "leader-crash", uppar_baseline)
        second = _faulted("uppar", "leader-crash", uppar_baseline)
        assert first.aggregates == second.aggregates
        assert first.sim_seconds == second.sim_seconds
        assert first.emitted == second.emitted


class TestStrategyGates:
    def test_unknown_strategy_names_known_ones(self):
        plan = FaultPlan.preset("leader-crash", 7, NODES, 1.0)
        with pytest.raises(CapabilityError, match="known strategies"):
            REGISTRY.create("slash", NODES).attach_faults(
                plan, strategy="paxos"
            )

    def test_flink_has_no_recovery_plane(self):
        plan = FaultPlan.preset("nic-flap", 7, NODES, 1.0)
        with pytest.raises(CapabilityError,
                           match="none \\(data-plane faults only\\)"):
            REGISTRY.create("flink", NODES).attach_faults(
                plan, strategy=STRATEGY_ASYNC_SNAPSHOT
            )

    def test_uppar_rejects_epoch_buddy(self):
        plan = FaultPlan.preset("leader-crash", 7, NODES, 1.0)
        with pytest.raises(CapabilityError, match="async-snapshot"):
            REGISTRY.create("uppar", NODES).attach_faults(
                plan, strategy=STRATEGY_EPOCH_BUDDY
            )

    def test_slash_supports_both(self):
        engine = REGISTRY.create("slash", NODES)
        assert STRATEGY_EPOCH_BUDDY in engine.supported_recovery_strategies
        assert STRATEGY_ASYNC_SNAPSHOT in engine.supported_recovery_strategies
        # Without a strategy, the first of RECOVERY_STRATEGIES it supports.
        plan = FaultPlan.preset("leader-crash", 7, NODES, 1.0)
        assert engine.attach_faults(plan).recovery_strategy == STRATEGY_EPOCH_BUDDY
        uppar = REGISTRY.create("uppar", NODES).attach_faults(plan)
        assert uppar.recovery_strategy == STRATEGY_ASYNC_SNAPSHOT
