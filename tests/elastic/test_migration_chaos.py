"""Migration × leader-crash: the hardest cell of the chaos matrix.

A leader crash landing during (or around) a live rescale must leave
every move either fenced-rolled-back or completed — never partial
ownership — and the run must still reproduce the fail-free *static*
baseline exactly.  These tests drive the same differential cell the CI
chaos matrix generates (``--elastic`` on the chaos harness).
"""

import dataclasses

import pytest

from repro.faults.plan import FaultPlan, fault_tunables
from repro.runtime import Scenario, run_scenario

RECORDS = 1000
SEED = 7
NODES = 3


def scenario(**kwargs):
    return Scenario(
        engine="slash",
        workload="ysb",
        nodes=NODES,
        threads=2,
        workload_overrides={"records_per_thread": RECORDS},
        seed=SEED,
        **kwargs,
    )


@pytest.fixture(scope="module")
def baseline():
    return run_scenario(scenario())


@pytest.fixture(scope="module", params=["all-at-once", "fluid"])
def faulted(request, baseline):
    horizon = baseline.sim_seconds
    plan = FaultPlan.preset("leader-crash", SEED, NODES, horizon)
    plan.validate(NODES, horizon_s=horizon)
    return run_scenario(scenario(
        fault_plan=plan,
        fault_overrides=fault_tunables(horizon),
        rescale_at=horizon * 0.3,
        migration_strategy=request.param,
        rescale_overrides={"action": "join", "add_nodes": 1},
    ))


def test_leader_crash_during_migration_never_splits_ownership(baseline, faulted):
    # Zero lost results: chaos + migration still equals the untouched run.
    assert faulted.aggregates == baseline.aggregates
    # Every planned move ended in exactly one of the two legal states.
    info = faulted.extra["elastic"]
    for event in info["events"]:
        assert event["rolled_back"] in (True, False)
    assert info["moves_completed"] + info["moves_rolled_back"] == len(
        info["events"]
    )
    # The recovery plane saw no same-term double commit: the fenced
    # term bump keeps old-leader and new-leader commits apart.
    terms = faulted.extra["faults"].get("terms", {})
    assert not terms.get("split_brain", [])


def test_elastic_report_reads_the_one_term_registry(faulted):
    """Failover and migration bump terms in one registry, so the elastic
    report shows every handoff's term — the same terms the fault plane
    reports, not a private copy that stays empty under faults."""
    info = faulted.extra["elastic"]
    completed = [e for e in info["events"] if not e["rolled_back"]]
    assert completed
    for event in completed:
        assert info["terms"][event["partition"]] >= 1
    fault_terms = faulted.extra["faults"]["terms"]["terms"]
    assert {str(p): t for p, t in info["terms"].items()} == fault_terms


def test_chaos_harness_runs_the_migration_cell():
    """The CI cell end to end: run_chaos(elastic=...) raises FaultError
    on any lost result, split brain, or non-determinism."""
    from repro.harness.suites import run_chaos

    report = run_chaos(
        fault="leader-crash",
        seed=SEED,
        nodes=NODES,
        threads=2,
        records_per_thread=RECORDS,
        verify_determinism=True,
        system="slash",
        strategy="epoch-buddy",
        elastic="fluid",
    )
    assert "fluid rescale" in report.name
    assert report.rows


# -- UpPar: a crash mid-rescale aborts the barrier round and the global
# restart ends the rescale on the plan's final node set ----------------------
def uppar_scenario(**kwargs):
    return Scenario(
        engine="uppar",
        workload="ysb",
        nodes=NODES,
        threads=2,
        workload_overrides={"records_per_thread": RECORDS},
        seed=SEED,
        **kwargs,
    )


@pytest.fixture(scope="module")
def uppar_baseline():
    return run_scenario(uppar_scenario())


@pytest.fixture(scope="module", params=["all-at-once", "fluid"])
def uppar_runs(request, uppar_baseline):
    """(rescale only, rescale + leader crash), both sanitized."""
    horizon = uppar_baseline.sim_seconds
    rescale = dict(
        rescale_at=horizon * 0.3,
        migration_strategy=request.param,
        rescale_overrides={"action": "join", "add_nodes": 1},
        sanitize=True,
    )
    plan = FaultPlan.preset("leader-crash", SEED, NODES, horizon)
    plan.validate(NODES, horizon_s=horizon)
    clean = run_scenario(uppar_scenario(**rescale))
    faulted = run_scenario(uppar_scenario(
        fault_plan=plan, fault_overrides=fault_tunables(horizon), **rescale,
    ))
    return clean, faulted


def test_uppar_leader_crash_during_rescale_matches_static(
    uppar_baseline, uppar_runs
):
    clean, faulted = uppar_runs
    assert faulted.extra["faults"]["crashes"]
    assert faulted.aggregates == uppar_baseline.aggregates
    # Every planned move either completed in a round or was rolled back
    # by the restart; the crash-free run completes them all.
    planned = clean.extra["elastic"]["moves_completed"]
    assert planned > 0
    assert clean.extra["elastic"]["moves_rolled_back"] == 0
    info = faulted.extra["elastic"]
    assert info["moves_completed"] == sum(e["buckets"] for e in info["events"])
    assert info["moves_completed"] + info["moves_rolled_back"] == planned


def test_uppar_round_seal_is_not_quantised_by_a_poll():
    """At chaos size a reroute round seals on the barrier's completion
    event, well inside one 100 us poll period."""
    chaos_size = Scenario(
        engine="uppar", workload="ysb", nodes=3, threads=2,
        workload_overrides={"records_per_thread": 1500},
    )
    static = run_scenario(chaos_size)
    migrated = run_scenario(dataclasses.replace(
        chaos_size,
        rescale_at=static.sim_seconds * 0.3,
        migration_strategy="all-at-once",
        rescale_overrides={"action": "join", "add_nodes": 1},
    ))
    info = migrated.extra["elastic"]
    assert info["events"][0]["at_s"] - info["started_at_s"] < 1e-4
