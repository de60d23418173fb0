"""Tests for fault plans: validation and seed-reproducibility."""

import pytest

from repro.common.errors import FaultError
from repro.faults.plan import (
    _SECOND_CRASH_GAP_S,
    MULTI_CRASH_PRESETS,
    PRESETS,
    FaultEvent,
    FaultKind,
    FaultPlan,
    fault_tunables,
)


class TestFaultEvent:
    def test_rejects_negative_time(self):
        with pytest.raises(FaultError, match="past"):
            FaultEvent(FaultKind.NODE_CRASH, -1.0, 0)

    def test_rejects_negative_duration(self):
        with pytest.raises(FaultError, match="duration"):
            FaultEvent(FaultKind.STALL, 1.0, 0, duration_s=-0.5)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(FaultError, match="count"):
            FaultEvent(FaultKind.DROP_CHUNK, 1.0, 0, count=0)

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(FaultError, match="factor"):
            FaultEvent(FaultKind.NIC_FLAP, 1.0, 0, factor=0.0)

    def test_rejects_pair_target_where_scalar_required(self):
        with pytest.raises(FaultError, match="pair targets"):
            FaultEvent(FaultKind.NODE_CRASH, 1.0, (0, 1))

    def test_rejects_bool_target(self):
        with pytest.raises(FaultError, match="single executor"):
            FaultEvent(FaultKind.NODE_CRASH, 1.0, True)

    def test_rejects_zero_duration_partition(self):
        with pytest.raises(FaultError, match="positive.*duration"):
            FaultEvent(FaultKind.NET_PARTITION, 1.0, 1, duration_s=0.0)
        with pytest.raises(FaultError, match="positive.*duration"):
            FaultEvent(FaultKind.ASYM_PARTITION, 1.0, 1, duration_s=0.0)


class TestFaultPlanValidation:
    def test_target_out_of_range(self):
        plan = FaultPlan(events=(FaultEvent(FaultKind.NODE_CRASH, 1.0, 5),))
        with pytest.raises(FaultError, match="targets executor 5"):
            plan.validate(executors=3)

    def test_double_crash_of_same_node_rejected(self):
        plan = FaultPlan(
            events=(
                FaultEvent(FaultKind.NODE_CRASH, 1.0, 1),
                FaultEvent(FaultKind.NODE_CRASH, 2.0, 1),
            )
        )
        with pytest.raises(FaultError, match="once per plan"):
            plan.validate(executors=3)

    def test_crashing_every_executor_rejected(self):
        plan = FaultPlan(
            events=(
                FaultEvent(FaultKind.NODE_CRASH, 1.0, 0),
                FaultEvent(FaultKind.NODE_CRASH, 2.0, 1),
            )
        )
        with pytest.raises(FaultError, match="survive"):
            plan.validate(executors=2)

    def test_event_against_dead_node_rejected(self):
        # A stall scheduled after its target's crash can never fire;
        # accepting it would silently weaken the plan.
        plan = FaultPlan(
            events=(
                FaultEvent(FaultKind.NODE_CRASH, 1.0, 1),
                FaultEvent(FaultKind.STALL, 2.0, 1, duration_s=0.5),
            )
        )
        with pytest.raises(FaultError, match="never fire"):
            plan.validate(executors=3)

    def test_event_beyond_horizon_rejected(self):
        plan = FaultPlan(events=(FaultEvent(FaultKind.NODE_CRASH, 5.0, 1),))
        plan.validate(executors=3)  # fine without a horizon
        with pytest.raises(FaultError, match="horizon"):
            plan.validate(executors=3, horizon_s=2.0)

    def test_valid_plan_passes(self):
        plan = FaultPlan(
            events=(
                FaultEvent(FaultKind.NODE_CRASH, 1.0, 1),
                FaultEvent(FaultKind.NIC_FLAP, 0.5, 0, duration_s=1.0, factor=0.1),
            )
        )
        plan.validate(executors=3)
        assert plan.crash_targets() == [1]


class TestPresets:
    @pytest.mark.parametrize("name", PRESETS)
    def test_every_preset_builds_and_validates(self, name):
        plan = FaultPlan.preset(name, seed=7, executors=3, horizon_s=1.0)
        plan.validate(executors=3)
        assert len(plan) >= 1
        assert plan.seed == 7

    @pytest.mark.parametrize("name", PRESETS)
    def test_same_seed_same_schedule(self, name):
        a = FaultPlan.preset(name, seed=42, executors=4, horizon_s=2.5)
        b = FaultPlan.preset(name, seed=42, executors=4, horizon_s=2.5)
        assert a == b

    def test_different_seeds_differ(self):
        plans = {
            FaultPlan.preset("leader-crash", seed=s, executors=8, horizon_s=1.0)
            for s in range(20)
        }
        assert len(plans) > 1

    def test_crash_presets_never_target_executor_zero(self):
        # Executor 0 is the deterministic promotion target; presets must
        # leave it alive.
        for seed in range(50):
            plan = FaultPlan.preset("leader-crash", seed, executors=3, horizon_s=1.0)
            assert plan.crash_targets() == [plan.events[0].target]
            assert plan.events[0].target != 0

    def test_unknown_preset_rejected(self):
        with pytest.raises(FaultError, match="unknown fault preset"):
            FaultPlan.preset("meteor-strike", seed=1, executors=2, horizon_s=1.0)

    def test_needs_two_executors(self):
        with pytest.raises(FaultError, match="at least 2"):
            FaultPlan.preset("leader-crash", seed=1, executors=1, horizon_s=1.0)

    @pytest.mark.parametrize("name", MULTI_CRASH_PRESETS)
    def test_multi_crash_presets_need_three_executors(self, name):
        with pytest.raises(FaultError, match="at least 3"):
            FaultPlan.preset(name, seed=1, executors=2, horizon_s=1.0)

    @pytest.mark.parametrize("name", MULTI_CRASH_PRESETS)
    def test_second_crash_lands_after_the_fence_window(self, name):
        # The second crash must come at least the fixed fence cost after
        # the first: two deaths inside one fence window destroy the
        # majority and permanently wedge the cluster (split-brain-safe,
        # but unrecoverable — see TestQuorumLoss in test_cascades.py).
        for seed in range(20):
            plan = FaultPlan.preset(name, seed, executors=3, horizon_s=1.0)
            first, second = plan.events
            assert second.at_s - first.at_s >= _SECOND_CRASH_GAP_S

    def test_cascade_second_crash_hits_promotion_target(self):
        # Executor 0 is the deterministic promotion target; killing it
        # second is what makes the cascade a takeover-of-the-takeover.
        plan = FaultPlan.preset("cascade", seed=9, executors=3, horizon_s=1.0)
        assert plan.crash_targets()[1] == 0

    def test_buddy_crash_kills_buddy_before_victim(self):
        plan = FaultPlan.preset("buddy-crash", seed=9, executors=3, horizon_s=1.0)
        buddy, victim = (e.target for e in plan.events)
        assert buddy == (victim + 1) % 3


class TestGrayFaultValidation:
    """slow-node / jitter: the PR's gray-failure kinds."""

    def test_slow_node_factor_must_be_a_slowdown(self):
        # factor is the fraction of nominal speed: 1.0 means "not slow".
        with pytest.raises(FaultError, match=r"\(0, 1\)"):
            FaultEvent(FaultKind.SLOW_NODE, 1.0, 0, duration_s=1.0, factor=1.0)
        with pytest.raises(FaultError, match=r"\(0, 1\)"):
            FaultEvent(FaultKind.SLOW_NODE, 1.0, 0, duration_s=1.0, factor=2.0)
        with pytest.raises(FaultError, match="positive"):
            FaultEvent(FaultKind.SLOW_NODE, 1.0, 0, duration_s=1.0, factor=0.0)
        with pytest.raises(FaultError, match="positive"):
            FaultEvent(FaultKind.SLOW_NODE, 1.0, 0, duration_s=1.0, factor=-0.5)

    def test_slow_node_needs_a_positive_duration(self):
        with pytest.raises(FaultError, match="duration"):
            FaultEvent(FaultKind.SLOW_NODE, 1.0, 0, duration_s=0.0, factor=0.5)

    def test_jitter_factor_must_inflate(self):
        with pytest.raises(FaultError, match="> 1"):
            FaultEvent(FaultKind.JITTER, 1.0, 0, duration_s=1.0, factor=1.0)

    def test_jitter_needs_a_positive_duration(self):
        with pytest.raises(FaultError, match="duration"):
            FaultEvent(FaultKind.JITTER, 1.0, 0, duration_s=0.0, factor=4.0)

    def test_peer_is_jitter_only(self):
        with pytest.raises(FaultError, match="only meaningful for"):
            FaultEvent(FaultKind.NIC_FLAP, 1.0, 0, duration_s=1.0, peer=1)

    def test_peer_cannot_equal_the_target(self):
        with pytest.raises(FaultError, match="no link to itself"):
            FaultEvent(
                FaultKind.JITTER, 1.0, 0, duration_s=1.0, factor=4.0, peer=0
            )

    def test_jitter_peer_out_of_range_names_the_missing_link(self):
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.JITTER, 1.0, 0, duration_s=1.0, factor=4.0,
                       peer=5),
        ))
        with pytest.raises(FaultError, match="there is no such link"):
            plan.validate(executors=3)

    def test_overlapping_slow_node_windows_on_one_target_rejected(self):
        plan = FaultPlan(events=(
            FaultEvent(FaultKind.SLOW_NODE, 1.0, 0, duration_s=2.0, factor=0.5),
            FaultEvent(FaultKind.SLOW_NODE, 2.0, 0, duration_s=1.0, factor=0.25),
        ))
        with pytest.raises(FaultError, match="overlapping slow-node"):
            plan.validate(executors=3)

    def test_disjoint_or_cross_target_slowdowns_are_fine(self):
        FaultPlan(events=(
            FaultEvent(FaultKind.SLOW_NODE, 1.0, 0, duration_s=1.0, factor=0.5),
            FaultEvent(FaultKind.SLOW_NODE, 2.0, 0, duration_s=1.0, factor=0.25),
            FaultEvent(FaultKind.SLOW_NODE, 1.5, 1, duration_s=2.0, factor=0.5),
        )).validate(executors=3)

    def test_gray_presets_exist_and_build_valid_plans(self):
        for name in ("slow-node", "jitter"):
            assert name in PRESETS
            plan = FaultPlan.preset(name, seed=4, executors=3, horizon_s=1.0)
            plan.validate(executors=3, horizon_s=1.0)
            (event,) = plan.events
            assert event.kind.value == name
            assert event.duration_s > 0

    def test_misspelled_gray_preset_gets_a_suggestion(self):
        with pytest.raises(FaultError, match="slow-node"):
            FaultPlan.preset("slow-nod", seed=1, executors=3, horizon_s=1.0)
        with pytest.raises(FaultError, match="jitter"):
            FaultPlan.preset("jitters", seed=1, executors=3, horizon_s=1.0)


class TestFaultTunables:
    """The one spelling of the horizon-proportional ``fault_overrides``."""

    def test_scales_with_the_horizon_above_the_floors(self):
        assert fault_tunables(0.1) == dict(
            detect_s=0.1 * 0.02, watchdog_period_s=0.1 * 0.01,
            rto_s=0.1 * 0.001, credit_timeout_s=0.1 * 0.005,
        )

    def test_retransmission_and_credit_timeouts_have_floors(self):
        tiny = fault_tunables(1e-5)
        assert tiny["rto_s"] == 5e-6
        assert tiny["credit_timeout_s"] == 2e-5
        assert tiny["detect_s"] == 1e-5 * 0.02

    def test_only_async_snapshot_gets_a_marker_round_interval(self):
        assert "snapshot_interval_s" not in fault_tunables(1.0, "epoch-buddy")
        assert fault_tunables(1.0, "async-snapshot")["snapshot_interval_s"] == 0.04
