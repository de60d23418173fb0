"""Partition tolerance: ride out symmetric cuts, fence asymmetric ones.

A symmetric partition silences a node in both directions; retransmission
holds data until the cut heals and no takeover is warranted.  An
asymmetric partition (the node transmits but cannot hear) isolates the
current leader from the quorum: the majority side must fence it, promote
a successor under a bumped term, and the merged post-heal state must
still match the sequential reference oracle exactly.
"""

import pytest

from repro.baselines.reference import SequentialReference
from repro.faults.plan import FaultPlan, fault_tunables
from repro.runtime import REGISTRY, diff_aggregates, make_workload

NODES = 3
THREADS = 2


def _workload():
    return make_workload("ysb", records_per_thread=600, batch_records=150)


def _run_faulted(plan: FaultPlan, horizon: float):
    workload = _workload()
    engine = REGISTRY.create("slash", NODES).attach_faults(
        plan, fault_tunables(horizon)
    )
    return engine.run(workload.build_query(), workload.flows(NODES, THREADS))


@pytest.fixture(scope="module")
def baseline():
    workload = _workload()
    return REGISTRY.create("slash", NODES).run(
        workload.build_query(), workload.flows(NODES, THREADS)
    )


@pytest.fixture(scope="module")
def oracle():
    workload = _workload()
    return SequentialReference().run(
        workload.build_query(), workload.flows(NODES, THREADS)
    )


class TestNetPartition:
    def test_symmetric_cut_is_ridden_out_without_takeover(self, baseline):
        # The cut is short relative to detection: retransmission holds
        # the data until heal, and nobody gets fenced.
        plan = FaultPlan.preset("net-partition", 7, NODES, baseline.sim_seconds)
        faulted = _run_faulted(plan, baseline.sim_seconds)
        info = faulted.extra["faults"]
        assert all("promoted" not in c for c in info["crashes"].values())
        assert info["terms"]["fences"] == []
        (record,) = info["partitions"]
        assert record["symmetric"] is True
        assert record["healed_at"] > record["start_s"]

    def test_symmetric_cut_loses_zero_results(self, baseline):
        plan = FaultPlan.preset("net-partition", 7, NODES, baseline.sim_seconds)
        faulted = _run_faulted(plan, baseline.sim_seconds)
        missing, extra, mismatched = diff_aggregates(
            baseline.aggregates, faulted.aggregates
        )
        assert missing == []
        assert extra == []
        assert mismatched == []
        assert faulted.emitted == baseline.emitted

    def test_heartbeats_actually_crossed_the_cut_boundary(self, baseline):
        # Non-vacuity: the detector ran and the cut really dropped
        # control traffic — otherwise "no takeover" proves nothing.
        plan = FaultPlan.preset("net-partition", 7, NODES, baseline.sim_seconds)
        faulted = _run_faulted(plan, baseline.sim_seconds)
        membership = faulted.extra["faults"]["membership"]
        assert membership["heartbeats_delivered"] > 0
        assert membership["heartbeats_lost"] > 0


class TestAsymPartition:
    def test_isolated_leader_is_fenced_by_majority(self, baseline):
        plan = FaultPlan.preset("asym-partition", 7, NODES, baseline.sim_seconds)
        (victim,) = {e.target for e in plan}
        faulted = _run_faulted(plan, baseline.sim_seconds)
        info = faulted.extra["faults"]
        crash = info["crashes"][str(victim)]
        # The majority side reached quorum and promoted a survivor.
        assert crash["votes"] >= 2
        assert crash["promoted"] != victim
        assert crash["detection_s"] >= 0.0
        assert crash["promotion_s"] > 0.0
        assert crash["mttr_s"] >= crash["promotion_s"]

    def test_no_two_executors_commit_same_partition_same_term(self, baseline):
        # The acceptance invariant: an asym partition isolates the
        # current leader, yet no (partition, term) pair ever sees two
        # committers.  The commit registry proves the check non-vacuous:
        # fenced partitions have commits under their new term.
        plan = FaultPlan.preset("asym-partition", 7, NODES, baseline.sim_seconds)
        faulted = _run_faulted(plan, baseline.sim_seconds)
        terms = faulted.extra["faults"]["terms"]
        assert terms["split_brain"] == []
        assert terms["fences"] != []
        fenced = {f["partition"]: f["new_term"] for f in terms["fences"]}
        assert any(
            f"{partition}:{term}" in terms["commits"]
            for partition, term in fenced.items()
        )

    def test_post_heal_state_matches_sequential_oracle(self, baseline, oracle):
        plan = FaultPlan.preset("asym-partition", 7, NODES, baseline.sim_seconds)
        faulted = _run_faulted(plan, baseline.sim_seconds)
        missing, extra, mismatched = diff_aggregates(
            oracle.aggregates, faulted.aggregates
        )
        assert missing == []
        assert extra == []
        assert mismatched == []

    def test_same_seed_partition_runs_are_identical(self, baseline):
        plan = FaultPlan.preset("asym-partition", 7, NODES, baseline.sim_seconds)
        first = _run_faulted(plan, baseline.sim_seconds)
        second = _run_faulted(plan, baseline.sim_seconds)
        assert first.aggregates == second.aggregates
        assert first.sim_seconds == second.sim_seconds
        assert first.emitted == second.emitted
        assert first.counters.retransmits == second.counters.retransmits
