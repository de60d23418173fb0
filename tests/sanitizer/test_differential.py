"""End-to-end tests of the differential oracle harness.

A fuzz case is a ``repro.runtime.Scenario``; a hand-built one that wants
a fault preset carries the same private placement tuple a drawn one does.

The decisive regression here injects a ledger dedupe bug (``<`` instead
of ``<=`` on the admission frontier, so a delta re-delivered at exactly
the frontier merges twice) and proves the harness catches it through
*both* of its nets: the ``ledger-exactly-once`` checker with sanitizers
on, and the reference-oracle comparison with sanitizers off.
"""

from dataclasses import replace

import pytest

from repro.common.errors import StateError
from repro.runtime import Scenario, diff_aggregates, run_scenario
from repro.sanitizer.invariants import InvariantViolation
from repro.sanitizer.scenarios import (
    check_scenario,
    generate_scenario,
    label,
    without,
)
from repro.state.epoch import EpochLedger

AGG_SCENARIO = Scenario(
    "slash", "ysb", nodes=3, threads=2,
    workload_overrides={
        "records_per_thread": 220, "batch_records": 64, "key_range": 40,
    },
    engine_overrides={"credits": 4, "epoch_bytes": 8192},
    seed=42, sanitize=True,
)
JOIN_SCENARIO = Scenario(
    "slash", "nb11", nodes=2, threads=2,
    workload_overrides={
        "records_per_thread": 200, "batch_records": 64, "sellers": 20,
    },
    engine_overrides={"credits": 4, "epoch_bytes": 32768},
    seed=7, sanitize=True,
)
#: (preset, fault seed, rescale fraction), placed by the check.
FAULT_PLACEMENT = ("duplicate-delta", 3, None)


class TestCleanScenarios:
    @pytest.mark.parametrize(
        "scenario, placement",
        [
            (AGG_SCENARIO, None),
            (JOIN_SCENARIO, None),
            (AGG_SCENARIO, FAULT_PLACEMENT),
        ],
        ids=["agg", "join", "faulted"],
    )
    def test_scenario_passes_with_all_checkers_armed(self, scenario, placement):
        outcome = check_scenario(scenario, placement=placement)
        assert outcome.ok, outcome.failures
        assert outcome.horizon_s > 0

    def test_every_invariant_category_actually_fired(self):
        outcome = check_scenario(AGG_SCENARIO)
        assert outcome.ok, outcome.failures
        for invariant in (
            "event-time", "credit-conservation", "buffer-lifecycle",
            "clock-monotonic", "watermark-monotonic",
            "ledger-exactly-once", "window-fire",
        ):
            assert outcome.checks.get(invariant, 0) > 0, invariant

    def test_generated_scenarios_are_reproducible(self):
        assert generate_scenario(9, 4) == generate_scenario(9, 4)

    def test_sanitized_run_equals_plain_run(self):
        """Arming the checkers must not perturb results (pure observer)."""
        plain = run_scenario(replace(AGG_SCENARIO, sanitize=False))
        sanitized = run_scenario(AGG_SCENARIO)
        assert sanitized.aggregates == plain.aggregates
        assert sanitized.sim_seconds == plain.sim_seconds
        assert sanitized.extra["sanitizer_checks"]
        assert "sanitizer_checks" not in plain.extra


class TestRoundTrip:
    """The replay line is exact: a materialised case survives
    ``to_json`` / ``from_json`` unchanged and re-checks identically."""

    @pytest.mark.parametrize("index", range(12))
    def test_sampled_case_round_trips_and_rechecks_identically(self, index):
        outcome = check_scenario(*generate_scenario(7, index))
        case = outcome.scenario
        again = Scenario.from_json(case.to_json())
        assert again == case
        replayed = check_scenario(again)
        assert replayed.scenario == case
        assert replayed.failures == outcome.failures
        assert replayed.checks == outcome.checks
        assert replayed.horizon_s == outcome.horizon_s

    def test_repro_command_carries_the_line(self):
        case = check_scenario(AGG_SCENARIO, placement=FAULT_PLACEMENT).scenario
        payload = case.repro_command().split("--replay '")[1].rstrip("'")
        assert Scenario.from_json(payload) == case
        assert case.fault_plan is not None and case.fault_overrides


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


@pytest.fixture(scope="module")
def faulted():
    """The faulted case, materialised by a check on the healthy ledger."""
    return check_scenario(AGG_SCENARIO, placement=FAULT_PLACEMENT).scenario


class TestInjectedLedgerDedupeBug:
    def test_checker_catches_double_admission(self, faulted, ledger_dedupe_bug):
        """Sanitizers on: the shadow account vetoes the bogus ruling the
        instant the retransmitted delta is re-admitted."""
        with pytest.raises(InvariantViolation) as exc:
            run_scenario(faulted)
        assert exc.value.invariant == "ledger-exactly-once"

    def test_differential_oracle_catches_overcount(self, faulted, ledger_dedupe_bug):
        """Sanitizers off: the double merge inflates aggregates, and the
        comparison against the sequential reference flags it."""
        oracle = run_scenario(
            replace(without(faulted, "fault"), engine="reference",
                    engine_overrides={}, sanitize=False)
        )
        dirty = run_scenario(replace(faulted, sanitize=False))
        missing, extra, mismatched = diff_aggregates(
            oracle.aggregates, dirty.aggregates
        )
        assert missing or extra or mismatched

    def test_run_scenario_reports_the_bug_as_a_failure(self, ledger_dedupe_bug):
        """The harness entry point turns the violation into a failure
        line instead of crashing, so shrinking can take over."""
        outcome = check_scenario(AGG_SCENARIO, placement=FAULT_PLACEMENT)
        assert not outcome.ok
        assert any("ledger-exactly-once" in line for line in outcome.failures)


class TestOverloadScenarios:
    """~30% of generated scenarios attach an unpaced overload plane; the
    differential comparison must stay exact while the conservation
    invariants fire."""

    def test_unpaced_overload_scenario_passes_and_checks_fire(self):
        outcome = check_scenario(_with_overload(AGG_SCENARIO, "probabilistic"))
        assert outcome.ok, outcome.failures
        assert outcome.checks.get("backpressure-conservation", 0) > 0

    def test_generator_draws_overload_sometimes(self):
        policies = {
            generate_scenario(21, index)[0].shed_policy for index in range(40)
        }
        assert None in policies          # most scenarios stay plain
        assert policies - {None}         # but the overload arm is live
        from repro.core.system import SHED_POLICIES
        assert (policies - {None}) <= set(SHED_POLICIES)

    def test_label_carries_the_overload_tag(self):
        assert "overload=fair" in label(_with_overload(AGG_SCENARIO, "fair"))
        assert "overload" not in label(AGG_SCENARIO)


def _with_overload(scenario, policy):
    return replace(scenario, shed_policy=policy, slo_p99_ms=1e9)
