"""Declarative scenarios: determinism, equivalence, and generic hooks."""

import pytest

from repro.common.errors import CapabilityError, ConfigError
from repro.faults.plan import FaultPlan, fault_tunables
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


def test_unknown_workload_option_raises_with_suggestion():
    with pytest.raises(ConfigError) as caught:
        make_workload("ysb", zipf=1.4)
    message = str(caught.value)
    assert "unknown ysb workload option 'zipf'" in message
    assert "did you mean 'zipf_z'?" in message
    assert "records_per_thread" in message and "key_range" in message
    with pytest.raises(ConfigError, match=r"did you mean 'sellers'\?"):
        make_workload("nb8", seller=10)


def test_every_workload_constructor_names_its_options():
    """The unknown-option message lists ``inspect.signature`` names, so a
    registered constructor may not hide options behind ``**kwargs``."""
    import inspect

    for name, (cls, presets) in WORKLOADS.items():
        parameters = inspect.signature(cls).parameters
        kinds = {parameter.kind for parameter in parameters.values()}
        assert kinds == {inspect.Parameter.POSITIONAL_OR_KEYWORD}, name
        assert set(presets) <= set(parameters), name


def test_unknown_strategy_raises():
    with pytest.raises(ConfigError, match="unknown cost strategy"):
        resolve_strategy("jit")


def test_workload_registry_covers_paper_workloads():
    assert set(WORKLOADS) == {
        "ysb", "cm", "nb7", "nb8", "nb11", "ro", "sessions",
    }


# -- the last-workload memo ---------------------------------------------------

@pytest.fixture
def empty_slot(monkeypatch):
    """The memo is process state: start from (and restore) an empty slot."""
    from repro.runtime import scenario

    monkeypatch.setattr(scenario, "_last_workload", None)


def test_same_request_twice_is_the_same_workload(empty_slot):
    first = make_workload("ysb", seed=3, **SMALL)
    # Keyword order is not part of the key.
    assert make_workload("ysb", **SMALL, seed=3) is first
    assert make_workload("ysb", batch_records=100, seed=3,
                         records_per_thread=400) is first


def test_a_different_request_evicts_and_frees_the_previous(empty_slot):
    import gc
    import weakref

    first = make_workload("ysb", **SMALL)
    first.flows(1, 2)
    gone = weakref.ref(first)
    del first
    other = make_workload("cm", **SMALL)
    gc.collect()
    assert gone() is None
    again = make_workload("ysb", **SMALL)
    assert make_workload("ysb", **SMALL) is again
    assert make_workload("cm", **SMALL) is not other


def test_memo_key_carries_seed_and_value_types(empty_slot):
    one = make_workload("ysb", seed=1, **SMALL)
    two = make_workload("ysb", seed=2, **SMALL)
    assert two is not one
    assert not (one.flow_for(0, 0)[0][1].keys == two.flow_for(0, 0)[0][1].keys).all()
    # 1 == 1.0 and hash(1) == hash(1.0), but they are two requests.
    assert type(make_workload("ysb", zipf_z=1, **SMALL).zipf_z) is int
    assert type(make_workload("ysb", zipf_z=1.0, **SMALL).zipf_z) is float


def test_unhashable_override_bypasses_the_memo(empty_slot):
    class Unhashable(int):
        __hash__ = None

    kept = make_workload("ysb", **SMALL)
    size = Unhashable(400)
    first = make_workload("ysb", records_per_thread=size)
    second = make_workload("ysb", records_per_thread=size)
    assert first is not second
    assert first.records_per_thread == 400
    # ... and leaves the slot alone.
    assert make_workload("ysb", **SMALL) is kept


def test_rejected_requests_leave_the_slot_alone(empty_slot):
    kept = make_workload("ysb", **SMALL)
    with pytest.raises(ConfigError):
        make_workload("ysbb")
    with pytest.raises(ConfigError):
        make_workload("ysb", zipf=1.0)
    assert make_workload("ysb", **SMALL) is kept


def test_run_scenario_shares_inputs_between_equal_requests(empty_slot):
    """A baseline/treatment pair — and an oracle built by hand with
    ``make_workload(name, seed=..., **overrides)`` — run on one input set."""
    spec = Scenario(engine="slash", workload="ysb", nodes=2, threads=2,
                    workload_overrides=dict(SMALL), seed=5)
    run_scenario(spec)
    shared = make_workload("ysb", seed=5, **SMALL)
    assert set(shared._flow_cache) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    cached = dict(shared._flow_cache)
    run_scenario(Scenario(engine="uppar", workload="ysb", nodes=2, threads=2,
                          workload_overrides=dict(SMALL), seed=5, sanitize=True))
    assert make_workload("ysb", seed=5, **SMALL) is shared
    assert all(shared._flow_cache[worker] is flow for worker, flow in cached.items())


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


# -- the replay wire format ----------------------------------------------------

def _everything_scenario():
    horizon = 2.5e-5
    return Scenario(
        "slash", "ysb", nodes=3, threads=3,
        workload_overrides=dict(SMALL), engine_overrides={"credits": 4},
        seed=9, sanitize=True,
        fault_plan=FaultPlan.preset("mixed", 3, 3, horizon),
        fault_overrides=fault_tunables(horizon, "async-snapshot"),
        recovery_strategy="async-snapshot",
        rescale_at=horizon / 3, migration_strategy="all-at-once",
        rescale_overrides={"action": "leave", "drain_node": 2},
        slo_p99_ms=1e9, shed_policy="fair",
        overload_overrides={"tenants": 2},
    )


def test_to_json_round_trips_every_plane_exactly():
    spec = _everything_scenario()
    again = Scenario.from_json(spec.to_json())
    assert again == spec
    assert again.fault_plan.events[2].at_s == spec.fault_plan.events[2].at_s
    assert again.to_json() == spec.to_json()


def test_to_json_is_params_minus_defaults_with_the_plan_as_plain_data():
    import json

    assert json.loads(Scenario("slash", "ysb").to_json()) == {
        "engine": "slash", "workload": "ysb",
    }
    data = json.loads(_everything_scenario().to_json())
    assert set(data) == set(_everything_scenario().params()) - {"strategy"}
    assert data["fault_plan"]["seed"] == 3
    assert [e["kind"] for e in data["fault_plan"]["events"]] == [
        "nic-flap", "duplicate-delta", "node-crash",
    ]


def test_from_json_rebuilds_the_plan_through_the_validators():
    line = (
        '{"engine": "slash", "workload": "ysb", "nodes": 2, "fault_plan": '
        '{"seed": 0, "events": [%s]}}'
    )
    crash = '{"kind": "node-crash", "at_s": 1e-6, "target": %d}'
    assert Scenario.from_json(line % (crash % 1)).fault_plan.crash_targets() == [1]
    with pytest.raises(ConfigError, match="targets executor 2"):
        Scenario.from_json(line % (crash % 2))
    with pytest.raises(ConfigError, match="crashes all 2 executors"):
        Scenario.from_json(line % ", ".join([crash % 0, crash % 1]))
    with pytest.raises(ConfigError, match="'melt' is not a valid FaultKind"):
        Scenario.from_json(line % '{"kind": "melt", "at_s": 0.0, "target": 1}')


@pytest.mark.parametrize(
    "engine, planes, message",
    [
        ("flink", {"rescale_at": 0.01},
         "engine 'flink' does not support elastic rescaling (missing "
         "capability 'elastic'; has: ['fault_injectable', 'joins', "
         "'sanitize', 'scale_out', 'session_windows'])"),
        ("uppar", {"slo_p99_ms": 5.0, "shed_policy": "fair"},
         "engine 'uppar' does not support overload admission control "
         "(missing capability 'overload'; has: ['elastic', "
         "'fault_injectable', 'joins', 'sanitize', 'scale_out', "
         "'session_windows'])"),
    ],
    ids=["flink-elastic", "uppar-overload"],
)
def test_plane_the_engine_cannot_arm_names_what_it_supports(
    engine, planes, message
):
    """The engine's attach hook is the one check: its refusal names the
    engine, the plane and the capabilities the engine does have."""
    with pytest.raises(CapabilityError) as caught:
        run_scenario(Scenario(engine, "ysb", 2, 2, dict(SMALL), **planes))
    assert str(caught.value) == message
