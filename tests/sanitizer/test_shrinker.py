"""Greedy scenario shrinker: minimization power and floor safety.

Most predicates here are synthetic (no engine runs), so these tests pin
the shrinker's search behaviour exactly: it must at least halve the
record count of a record-driven failure, drop an irrelevant plane or a
single irrelevant fault event, respect the dimensional floors, and stay
within its attempt budget.  One real-engine property pins the re-timing:
every candidate's fault plan must sit inside that candidate's own
fail-free horizon.
"""

from dataclasses import replace

from repro.faults.plan import FaultEvent, FaultKind, FaultPlan, fault_tunables
from repro.runtime import Scenario
from repro.sanitizer.scenarios import (
    CheckOutcome,
    check_scenario,
    generate_scenario,
    retimed,
)
from repro.sanitizer.shrinker import (
    MIN_BATCH,
    MIN_KEYSPACE,
    MIN_NODES,
    MIN_RECORDS,
    MIN_THREADS,
    shrink,
)

CRASH = FaultEvent(FaultKind.NODE_CRASH, 4e-6, 1)
FLAP = FaultEvent(FaultKind.NIC_FLAP, 2e-6, 0, duration_s=1e-6, factor=0.1)

BIG = Scenario(
    "slash", "ysb", nodes=4, threads=3,
    workload_overrides={
        "records_per_thread": 400, "batch_records": 128, "key_range": 160,
    },
    engine_overrides={"credits": 4, "epoch_bytes": 8192},
    seed=1, sanitize=True,
    fault_plan=FaultPlan((CRASH,), seed=2),
    fault_overrides=fault_tunables(1e-5),
)


def records(case):
    return case.workload_overrides["records_per_thread"]


def failing_when(predicate):
    """A fake check: fails exactly where ``predicate`` holds, on a horizon
    that never moves (so nothing is re-timed)."""
    def check(candidate, placed_on):
        failures = ["synthetic"] if predicate(candidate) else []
        return CheckOutcome(candidate, failures=failures, horizon_s=placed_on)
    return check


def shrunk(case, predicate, **kwargs):
    return shrink(case, 1e-5, failing_when(predicate), **kwargs)


def test_shrink_halves_a_record_driven_failure():
    """Acceptance bar: a failure needing >= 100 records minimizes to at
    most half the original record count (and stays failing)."""
    smallest, attempts = shrunk(BIG, lambda s: records(s) >= 100)
    assert records(smallest) <= records(BIG) // 2
    assert records(smallest) == 100  # greedy halving lands exactly here
    assert attempts > 0


def test_shrink_drops_an_irrelevant_fault():
    smallest, _ = shrunk(BIG, lambda s: records(s) >= MIN_RECORDS)
    assert smallest.fault_plan is None
    assert smallest.fault_overrides == {}
    assert smallest.recovery_strategy is None


def test_shrink_keeps_a_load_bearing_fault():
    smallest, _ = shrunk(BIG, lambda s: s.fault_plan is not None)
    assert smallest.fault_plan == BIG.fault_plan
    # Everything else minimized: halving stops once it would cross the
    # floor, so 400 -> 200 -> 100 -> 50 -> 25 (12 < MIN_RECORDS).
    assert records(smallest) == 25
    assert smallest.nodes == MIN_NODES
    assert smallest.threads == MIN_THREADS


def test_shrink_drops_a_single_irrelevant_fault_event():
    mixed = replace(BIG, fault_plan=FaultPlan((FLAP, CRASH), seed=2))
    crashes = lambda s: s.fault_plan is not None and s.fault_plan.crash_targets()
    smallest, _ = shrunk(mixed, crashes)
    assert smallest.fault_plan.events == (CRASH,)
    assert smallest.fault_plan.seed == 2


def test_shrink_never_removes_a_node_the_plan_still_needs():
    """Two crashes need a third executor to survive (the multi-crash
    presets' floor), and a target must stay inside the deployment."""
    second = FaultEvent(FaultKind.NODE_CRASH, 6e-6, 2)
    cascade = replace(BIG, fault_plan=FaultPlan((CRASH, second), seed=2))
    both = lambda s: s.fault_plan is not None and len(s.fault_plan) == 2
    smallest, _ = shrunk(cascade, both)
    assert smallest.nodes == 3
    smallest.fault_plan.validate(smallest.nodes)


def test_shrink_drops_an_irrelevant_rescale():
    elastic = replace(
        BIG, rescale_at=3e-6, migration_strategy="all-at-once",
        rescale_overrides={"action": "join", "add_nodes": 1},
    )
    smallest, _ = shrunk(elastic, lambda s: s.fault_plan is not None)
    assert not smallest.is_elastic
    assert smallest.rescale_overrides == {}
    assert smallest.migration_strategy == "fluid"


def test_shrink_keeps_a_load_bearing_rescale_draining_the_last_node():
    leaving = replace(
        BIG, fault_plan=None, fault_overrides={}, rescale_at=3e-6,
        rescale_overrides={"action": "leave", "drain_node": 3},
    )
    smallest, _ = shrunk(leaving, lambda s: s.is_elastic)
    assert smallest.nodes == MIN_NODES
    assert smallest.rescale_overrides == {"action": "leave", "drain_node": 1}
    assert smallest.rescale_at == 3e-6


def test_shrink_respects_all_floors():
    smallest, attempts = shrunk(BIG, lambda s: True)
    assert records(smallest) >= MIN_RECORDS
    assert smallest.nodes >= MIN_NODES
    assert smallest.threads >= MIN_THREADS
    assert smallest.workload_overrides["batch_records"] >= MIN_BATCH
    assert smallest.workload_overrides["key_range"] >= MIN_KEYSPACE
    assert smallest.fault_plan is None
    assert attempts <= 48


def test_shrink_returns_input_when_nothing_smaller_fails():
    seen = []
    def only_original_fails(candidate):
        seen.append(candidate)
        return False
    smallest, attempts = shrunk(BIG, only_original_fails)
    assert smallest == BIG
    assert attempts == len(seen)


def test_attempt_budget_bounds_the_walk():
    _smallest, attempts = shrunk(BIG, lambda s: True, max_attempts=5)
    assert attempts <= 5


def test_shrunk_scenario_round_trips_through_repro_command():
    smallest, _ = shrunk(BIG, lambda s: records(s) >= 100)
    payload = smallest.repro_command().split("--replay '")[1].rstrip("'")
    assert Scenario.from_json(payload) == smallest


LOADED = Scenario(
    "slash", "ysb", nodes=3, threads=2,
    workload_overrides={
        "records_per_thread": 200, "batch_records": 64, "key_range": 40,
    },
    seed=1, sanitize=True, shed_policy="fair", slo_p99_ms=1e9,
)


def test_shrink_drops_an_irrelevant_overload_plane():
    smallest, _ = shrunk(LOADED, lambda s: records(s) >= MIN_RECORDS)
    assert not smallest.is_overload


def test_shrink_keeps_a_load_bearing_overload_plane():
    smallest, _ = shrunk(LOADED, lambda s: s.shed_policy == "fair")
    assert smallest.shed_policy == "fair"
    assert smallest.slo_p99_ms == 1e9


def test_a_step_that_changes_the_horizon_retimes_the_case():
    """Fake check on a horizon proportional to the record count: the
    accepted case's instants move with it."""
    def check(candidate, placed_on):
        horizon = records(candidate) * 1e-8
        case = retimed(candidate, horizon / placed_on)
        both = case.fault_plan is not None and case.is_elastic
        return CheckOutcome(
            case, failures=["synthetic"] if both else [], horizon_s=horizon
        )

    start = replace(BIG, rescale_at=2e-6)
    smallest, _ = shrink(start, 400 * 1e-8, check)
    ratio = records(smallest) / 400
    (event,) = smallest.fault_plan.events
    assert abs(event.at_s - CRASH.at_s * ratio) < 1e-18
    assert abs(smallest.rescale_at - 2e-6 * ratio) < 1e-18
    for name, value in fault_tunables(1e-5).items():
        assert abs(smallest.fault_overrides[name] - value * ratio) < 1e-18


def test_every_real_candidate_keeps_its_plan_inside_its_own_horizon():
    """Real engines: shrink a faulted draw under a check that fails
    whenever the plan is still there, validating each candidate's plan
    against the candidate's fail-free horizon.  A shrinker that halved
    the records without re-timing would leave the crash past the end."""
    # Draw (7, 6): nb7 x213 on 4x2 under credit-starvation.
    first = check_scenario(*generate_scenario(7, 6))
    assert first.ok and first.scenario.fault_plan is not None
    checked = []

    def check(candidate, placed_on):
        outcome = check_scenario(candidate, placed_on=placed_on)
        case = outcome.scenario
        if case.fault_plan is not None:
            case.fault_plan.validate(case.nodes, horizon_s=outcome.horizon_s)
            checked.append(outcome.horizon_s)
            outcome.failures.append("synthetic: the plan is load-bearing")
        return outcome

    smallest, _ = shrink(first.scenario, first.horizon_s, check, max_attempts=12)
    assert records(smallest) < records(first.scenario)
    assert len(set(checked)) > 1  # the horizon really moved under the walk
