"""Declarative scenarios: determinism, equivalence, and generic hooks."""

import pytest

from repro.common.errors import CapabilityError, ConfigError
from repro.faults.plan import FaultPlan
from repro.runtime import (
    Scenario,
    WORKLOADS,
    make_workload,
    resolve_strategy,
    run_scenario,
)

SMALL = {"records_per_thread": 400, "batch_records": 100}


def test_unknown_workload_raises_with_suggestion():
    with pytest.raises(ConfigError, match=r"did you mean 'ysb'\?"):
        make_workload("ysbb")


def test_unknown_strategy_raises():
    with pytest.raises(ConfigError, match="unknown cost strategy"):
        resolve_strategy("jit")


def test_workload_registry_covers_paper_workloads():
    assert set(WORKLOADS) == {
        "ysb", "cm", "nb7", "nb8", "nb11", "ro", "sessions",
    }


def test_scenario_params_roundtrip_carries_every_field():
    """``params()`` is what crosses the ``-j N`` process boundary: a field
    it forgot would be silently reset to its default in the worker."""
    import dataclasses

    plan = FaultPlan.preset("nic-flap", seed=7, executors=3, horizon_s=1.0)
    every = dict(
        engine="uppar", workload="cm", nodes=3, threads=2,
        workload_overrides=dict(SMALL), engine_overrides={"credits": 4},
        strategy="interpreted", seed=11, sanitize=True, fault_plan=plan,
        fault_overrides={"rto_s": 1e-5}, recovery_strategy="async-snapshot",
        rescale_at=0.5, migration_strategy="all-at-once",
        rescale_overrides={"action": "leave"}, slo_p99_ms=2.0,
        shed_policy="fair", overload_overrides={"tenants": 3},
    )
    assert set(every) == {f.name for f in dataclasses.fields(Scenario)}
    spec = Scenario(**every)
    params = spec.params()
    assert Scenario(**params) == spec
    assert params["fault_plan"] is plan  # not deep-copied into a dict
    assert params["workload_overrides"] is not spec.workload_overrides


def test_run_scenario_deterministic_for_pinned_seed():
    spec = Scenario(engine="slash", workload="ysb", nodes=2, threads=2,
                    workload_overrides=dict(SMALL), seed=1234)
    first = run_scenario(spec)
    second = run_scenario(spec)
    assert first.aggregates == second.aggregates
    assert first.sim_seconds == second.sim_seconds
    assert first.emitted == second.emitted


def test_run_scenario_seed_changes_workload():
    base = Scenario(engine="slash", workload="ysb", nodes=2, threads=2,
                    workload_overrides=dict(SMALL), seed=1)
    other = Scenario(engine="slash", workload="ysb", nodes=2, threads=2,
                     workload_overrides=dict(SMALL), seed=2)
    assert run_scenario(base).aggregates != run_scenario(other).aggregates


def test_sanitize_hook_works_on_uppar():
    spec = Scenario(engine="uppar", workload="ysb", nodes=2, threads=2,
                    workload_overrides=dict(SMALL), sanitize=True)
    result = run_scenario(spec)
    checks = result.extra["sanitizer_checks"]
    assert sum(checks.values()) > 0


def test_fault_injection_on_lightsaber_fails_fast():
    """The capability error must fire before any simulation runs."""
    plan = FaultPlan.preset("nic-flap", seed=7, executors=2, horizon_s=1.0)
    spec = Scenario(engine="lightsaber", workload="ysb",
                    workload_overrides=dict(SMALL), fault_plan=plan)
    with pytest.raises(CapabilityError, match="fault injection"):
        run_scenario(spec)


def test_fault_hook_works_on_uppar():
    baseline = Scenario(engine="uppar", workload="ysb", nodes=2, threads=2,
                        workload_overrides=dict(SMALL))
    clean = run_scenario(baseline)
    plan = FaultPlan.preset("drop-chunk", seed=7, executors=2,
                            horizon_s=clean.sim_seconds)
    faulted = run_scenario(
        Scenario(engine="uppar", workload="ysb", nodes=2, threads=2,
                 workload_overrides=dict(SMALL), fault_plan=plan,
                 fault_overrides={"rto_s": max(5e-6, clean.sim_seconds * 0.001)})
    )
    # Dropped WRITEs must be retransmitted: zero lost results.
    assert faulted.aggregates == clean.aggregates
    assert faulted.extra["faults"]["writes_dropped"] > 0


def test_strategy_slows_down_interpreted():
    compiled = run_scenario(
        Scenario(engine="slash", workload="ysb", nodes=2, threads=2,
                 workload_overrides=dict(SMALL), strategy="compiled")
    )
    interpreted = run_scenario(
        Scenario(engine="slash", workload="ysb", nodes=2, threads=2,
                 workload_overrides=dict(SMALL), strategy="interpreted")
    )
    assert interpreted.sim_seconds > compiled.sim_seconds
    assert interpreted.aggregates == compiled.aggregates
