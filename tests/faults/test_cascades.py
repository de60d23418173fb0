"""Cascading-failure scenarios: second faults landing mid-recovery.

The cascade preset kills a leader, then kills executor 0 — the default
promotion target — while the first recovery is still replaying, forcing
a takeover of the takeover.  The buddy-crash preset kills a victim's
checkpoint buddy first, forcing recovery to fall back to full input
replay (checkpoint boundary -1).  Both must lose zero results, admit
every delta exactly once, and replay deterministically under the same
seed.  Two near-simultaneous crashes that destroy the majority must
fail fast with a quorum-loss error instead of wedging forever.
"""

import pytest

from repro.common.errors import FaultError
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, fault_tunables
from repro.runtime import REGISTRY, diff_aggregates, make_workload

NODES = 3
THREADS = 2


def _workload():
    return make_workload("ysb", records_per_thread=600, batch_records=150)


def _run_faulted(plan: FaultPlan, horizon: float):
    workload = _workload()
    engine = REGISTRY.create(
        "slash", NODES, fault_plan=plan, fault_overrides=fault_tunables(horizon)
    )
    return engine.run(workload.build_query(), workload.flows(NODES, THREADS))


@pytest.fixture(scope="module")
def baseline():
    workload = _workload()
    return REGISTRY.create("slash", NODES).run(
        workload.build_query(), workload.flows(NODES, THREADS)
    )


class TestCascade:
    def test_both_victims_recover_with_zero_lost_results(self, baseline):
        plan = FaultPlan.preset("cascade", 7, NODES, baseline.sim_seconds)
        faulted = _run_faulted(plan, baseline.sim_seconds)
        info = faulted.extra["faults"]
        for victim in plan.crash_targets():
            assert info["crashes"][str(victim)]["recovered_at"] > 0.0
        missing, extra, mismatched = diff_aggregates(
            baseline.aggregates, faulted.aggregates
        )
        assert missing == []
        assert extra == []
        assert mismatched == []
        assert faulted.emitted == baseline.emitted

    def test_promoted_leader_crash_reroutes_takeover(self, baseline):
        # The second crash always hits executor 0 — the lowest surviving
        # id and therefore the default promotion target for the first
        # victim.  Both recoveries must end on the one true survivor.
        plan = FaultPlan.preset("cascade", 7, NODES, baseline.sim_seconds)
        first_victim, second_victim = plan.crash_targets()
        assert second_victim == 0
        (survivor,) = set(range(NODES)) - set(plan.crash_targets())
        faulted = _run_faulted(plan, baseline.sim_seconds)
        crashes = faulted.extra["faults"]["crashes"]
        assert crashes[str(first_victim)]["promoted"] == survivor
        assert crashes[str(second_victim)]["promoted"] == survivor
        # The second fence ran against a membership already shrunk by
        # the first confirmed death: quorum of the remaining pair is 1.
        assert crashes[str(second_victim)]["votes"] == 1

    def test_no_split_brain_commits(self, baseline):
        plan = FaultPlan.preset("cascade", 7, NODES, baseline.sim_seconds)
        faulted = _run_faulted(plan, baseline.sim_seconds)
        assert faulted.extra["faults"]["terms"]["split_brain"] == []

    def test_same_seed_cascade_runs_are_identical(self, baseline):
        plan = FaultPlan.preset("cascade", 7, NODES, baseline.sim_seconds)
        first = _run_faulted(plan, baseline.sim_seconds)
        second = _run_faulted(plan, baseline.sim_seconds)
        assert first.aggregates == second.aggregates
        assert first.sim_seconds == second.sim_seconds
        assert first.emitted == second.emitted
        assert first.counters.retransmits == second.counters.retransmits


class TestBuddyCrash:
    def test_victim_falls_back_to_full_replay(self, baseline):
        # The buddy holding the victim's replicated checkpoint died
        # first, so no restorable boundary exists: recovery must rebuild
        # the victim's partitions from the very start of the input.
        plan = FaultPlan.preset("buddy-crash", 7, NODES, baseline.sim_seconds)
        buddy, victim = plan.crash_targets()
        faulted = _run_faulted(plan, baseline.sim_seconds)
        crash = faulted.extra["faults"]["crashes"][str(victim)]
        assert crash["checkpoint_boundary"] == -1
        assert crash["recovered_at"] > 0.0

    def test_full_replay_loses_zero_results(self, baseline):
        plan = FaultPlan.preset("buddy-crash", 7, NODES, baseline.sim_seconds)
        faulted = _run_faulted(plan, baseline.sim_seconds)
        missing, extra, mismatched = diff_aggregates(
            baseline.aggregates, faulted.aggregates
        )
        assert missing == []
        assert extra == []
        assert mismatched == []
        assert faulted.extra["faults"]["terms"]["split_brain"] == []


    def test_second_crash_during_victim_delta_redelivery(self, capsys):
        """The chaos-matrix cell at CLI defaults, seed 7: the second
        crash lands while the first victim's retained deltas are in
        flight to it, and the partition they were addressed to moves."""
        from repro.harness.cli import main

        assert main(["chaos", "--seed", "7", "--fault", "buddy-crash",
                     "--system", "slash"]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestQuorumLoss:
    def test_majority_loss_fails_fast_instead_of_wedging(self, baseline):
        # Two crashes inside the fence window leave one live member of
        # three, and neither death can ever be confirmed by a majority.
        # That wedge is split-brain-safe but unrecoverable; the injector
        # must raise rather than let the simulation spin forever.
        at = baseline.sim_seconds * 0.3
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.NODE_CRASH, at, 1),
            FaultEvent(FaultKind.NODE_CRASH, at + 1e-7, 2),
        ))
        with pytest.raises(FaultError, match="quorum permanently lost"):
            _run_faulted(plan, baseline.sim_seconds)
