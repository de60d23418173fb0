"""End-to-end tests of the differential oracle harness.

The decisive regression here injects a ledger dedupe bug (``<`` instead
of ``<=`` on the admission frontier, so a delta re-delivered at exactly
the frontier merges twice) and proves the harness catches it through
*both* of its nets: the ``ledger-exactly-once`` checker with sanitizers
on, and the reference-oracle comparison with sanitizers off.
"""

import pytest

from repro.baselines.reference import SequentialReference
from repro.common.errors import StateError
from repro.faults.plan import FaultPlan
from repro.runtime import REGISTRY, diff_aggregates, make_workload
from repro.sanitizer.invariants import InvariantViolation
from repro.sanitizer.scenarios import Scenario, generate_scenario, run_scenario
from repro.state.epoch import EpochLedger

AGG_SCENARIO = Scenario(
    workload="ysb", records=220, batch=64, keyspace=40, nodes=3, threads=2,
    epoch_bytes=8192, credits=4, workload_seed=42,
)
JOIN_SCENARIO = Scenario(
    workload="nb11", records=200, batch=64, keyspace=20, nodes=2, threads=2,
    epoch_bytes=32768, credits=4, workload_seed=7,
)
FAULT_SCENARIO = Scenario(
    workload="ysb", records=220, batch=64, keyspace=40, nodes=3, threads=2,
    epoch_bytes=8192, credits=4, workload_seed=42,
    fault="duplicate-delta", fault_seed=3,
)


def _run_setup(scenario):
    workload = make_workload(scenario.workload, **scenario.workload_overrides())
    query = workload.build_query()
    flows = workload.flows(scenario.nodes, scenario.threads)
    return workload, query, flows


class TestCleanScenarios:
    @pytest.mark.parametrize(
        "scenario", [AGG_SCENARIO, JOIN_SCENARIO, FAULT_SCENARIO],
        ids=["agg", "join", "faulted"],
    )
    def test_scenario_passes_with_all_checkers_armed(self, scenario):
        outcome = run_scenario(scenario)
        assert outcome.ok, outcome.failures
        assert outcome.horizon_s > 0

    def test_every_invariant_category_actually_fired(self):
        outcome = run_scenario(AGG_SCENARIO)
        assert outcome.ok, outcome.failures
        for invariant in (
            "event-time", "credit-conservation", "buffer-lifecycle",
            "clock-monotonic", "watermark-monotonic",
            "ledger-exactly-once", "window-fire",
        ):
            assert outcome.checks.get(invariant, 0) > 0, invariant

    def test_generated_scenarios_are_reproducible(self):
        a = generate_scenario(9, 4)
        b = generate_scenario(9, 4)
        assert a == b
        assert Scenario.from_json(a.to_json()) == a

    def test_sanitized_run_equals_plain_run(self):
        """Arming the checkers must not perturb results (pure observer)."""
        _w, query, flows = _run_setup(AGG_SCENARIO)
        plain = REGISTRY.create(
            "slash", AGG_SCENARIO.nodes,
            credits=AGG_SCENARIO.credits, epoch_bytes=AGG_SCENARIO.epoch_bytes,
        ).run(query, flows)
        sanitized = REGISTRY.create(
            "slash", AGG_SCENARIO.nodes, sanitize=True,
            credits=AGG_SCENARIO.credits, epoch_bytes=AGG_SCENARIO.epoch_bytes,
        ).run(query, flows)
        assert sanitized.aggregates == plain.aggregates
        assert sanitized.sim_seconds == plain.sim_seconds
        assert sanitized.extra["sanitizer_checks"]


def _buggy_admit(self, delta):
    """admit() with the dedupe comparison off by one: a delta arriving at
    exactly the admission frontier is merged again instead of dropped."""
    key = (delta.operator_id, delta.partition, delta.from_executor)
    last = self._last_seen.get(key)
    if last is not None and delta.epoch < last:  # BUG: should be <=
        return False
    if last is not None and delta.epoch > last + 1:
        raise StateError(f"epoch skip: {delta.epoch} after {last}")
    self._last_seen[key] = delta.epoch
    return True


@pytest.fixture
def ledger_dedupe_bug(monkeypatch):
    monkeypatch.setattr(EpochLedger, "admit", _buggy_admit)


def _fault_setup():
    workload, query, flows = _run_setup(FAULT_SCENARIO)
    oracle = SequentialReference().run(query, flows)
    horizon = REGISTRY.create(
        "slash", FAULT_SCENARIO.nodes, epoch_bytes=FAULT_SCENARIO.epoch_bytes,
    ).run(query, flows).sim_seconds
    plan = FaultPlan.preset(
        FAULT_SCENARIO.fault, FAULT_SCENARIO.fault_seed,
        FAULT_SCENARIO.nodes, horizon,
    )
    overrides = dict(
        detect_s=horizon * 0.02, watchdog_period_s=horizon * 0.01,
        rto_s=max(5e-6, horizon * 0.001),
        credit_timeout_s=max(2e-5, horizon * 0.005),
    )
    return query, flows, oracle, plan, overrides


class TestInjectedLedgerDedupeBug:
    def test_checker_catches_double_admission(self, ledger_dedupe_bug):
        """Sanitizers on: the shadow account vetoes the bogus ruling the
        instant the retransmitted delta is re-admitted."""
        query, flows, _oracle, plan, overrides = _fault_setup()
        with pytest.raises(InvariantViolation) as exc:
            REGISTRY.create(
                "slash", FAULT_SCENARIO.nodes, sanitize=True,
                credits=FAULT_SCENARIO.credits,
                epoch_bytes=FAULT_SCENARIO.epoch_bytes,
                fault_plan=plan, fault_overrides=overrides,
            ).run(query, flows)
        assert exc.value.invariant == "ledger-exactly-once"

    def test_differential_oracle_catches_overcount(self, ledger_dedupe_bug):
        """Sanitizers off: the double merge inflates aggregates, and the
        comparison against the sequential reference flags it."""
        query, flows, oracle, plan, overrides = _fault_setup()
        dirty = REGISTRY.create(
            "slash", FAULT_SCENARIO.nodes,
            credits=FAULT_SCENARIO.credits,
            epoch_bytes=FAULT_SCENARIO.epoch_bytes,
            fault_plan=plan, fault_overrides=overrides,
        ).run(query, flows)
        missing, extra, mismatched = diff_aggregates(
            oracle.aggregates, dirty.aggregates
        )
        assert missing or extra or mismatched

    def test_run_scenario_reports_the_bug_as_a_failure(self, ledger_dedupe_bug):
        """The harness entry point turns the violation into a failure
        line instead of crashing, so shrinking can take over."""
        outcome = run_scenario(FAULT_SCENARIO)
        assert not outcome.ok
        assert any("ledger-exactly-once" in line for line in outcome.failures)


class TestOverloadScenarios:
    """~30% of generated scenarios attach an unpaced overload plane; the
    differential comparison must stay exact while the conservation
    invariants fire."""

    def test_unpaced_overload_scenario_passes_and_checks_fire(self):
        scenario = _replace_overload(AGG_SCENARIO, "probabilistic")
        outcome = run_scenario(scenario)
        assert outcome.ok, outcome.failures

    def test_generator_draws_overload_sometimes(self):
        policies = {
            generate_scenario(21, index).overload for index in range(40)
        }
        assert None in policies          # most scenarios stay plain
        assert policies - {None}         # but the overload arm is live
        from repro.core.system import SHED_POLICIES
        assert (policies - {None}) <= set(SHED_POLICIES)

    def test_label_carries_the_overload_tag(self):
        scenario = _replace_overload(AGG_SCENARIO, "fair")
        assert "overload=fair" in scenario.label()
        assert "overload" not in AGG_SCENARIO.label()


def _replace_overload(scenario, policy):
    from dataclasses import replace

    return replace(scenario, overload=policy)
