"""Capability gating and scenario plumbing for the overload plane."""

import pytest

from repro.common.errors import CapabilityError
from repro.core.system import CAP_OVERLOAD, SHED_POLICIES
from repro.overload.config import OverloadConfig
from repro.runtime import REGISTRY, Scenario, run_scenario


class TestAttachHook:
    def test_slash_advertises_every_policy(self):
        engine = REGISTRY.create("slash", 2)
        assert CAP_OVERLOAD in REGISTRY.spec("slash").capabilities
        assert engine.supported_shed_policies == frozenset(SHED_POLICIES)
        engine.attach_overload(OverloadConfig(shed_policy="fair"))
        assert engine.overload_config.shed_policy == "fair"

    def test_non_capable_engine_fails_fast(self):
        engine = REGISTRY.create("flink", 2)
        with pytest.raises(CapabilityError, match="overload"):
            engine.attach_overload(OverloadConfig())

    def test_typo_policy_gets_a_suggestion(self):
        engine = REGISTRY.create("slash", 2)
        with pytest.raises(CapabilityError, match="did you mean 'fair'"):
            engine.attach_overload(OverloadConfig(shed_policy="fare"))

    def test_unknown_policy_lists_the_vocabulary(self):
        engine = REGISTRY.create("slash", 2)
        with pytest.raises(CapabilityError, match="drop-oldest"):
            engine.attach_overload(OverloadConfig(shed_policy="lifo"))


class TestScenarioPlumbing:
    def test_overload_scenario_on_non_capable_engine_names_the_capable(self):
        spec = Scenario(
            engine="flink", workload="ysb", nodes=2,
            workload_overrides={"records_per_thread": 100},
            slo_p99_ms=10.0,
        )
        with pytest.raises(CapabilityError) as exc:
            run_scenario(spec)
        assert str(exc.value) == (
            "engine 'flink' does not support overload admission control "
            "(missing capability 'overload'; has: ['fault_injectable', "
            "'joins', 'sanitize', 'scale_out', 'session_windows'])"
        )

    def test_slo_field_alone_arms_the_plane(self):
        assert Scenario(engine="slash", workload="ysb").is_overload is False
        assert Scenario(
            engine="slash", workload="ysb", slo_p99_ms=5.0
        ).is_overload
        assert Scenario(
            engine="slash", workload="ysb", shed_policy="fair"
        ).is_overload
        assert Scenario(
            engine="slash", workload="ysb",
            overload_overrides={"tenants": 2},
        ).is_overload

    def test_params_round_trip_carries_the_overload_fields(self):
        spec = Scenario(
            engine="slash", workload="ysb", slo_p99_ms=5.0,
            shed_policy="fair", overload_overrides={"tenants": 2},
        )
        params = spec.params()
        rebuilt = Scenario(**params)
        assert rebuilt.slo_p99_ms == 5.0
        assert rebuilt.shed_policy == "fair"
        assert rebuilt.overload_overrides == {"tenants": 2}

    def test_unpaced_overload_run_reports_exact_accounting(self):
        result = run_scenario(Scenario(
            engine="slash", workload="ysb", nodes=2, threads=2, seed=3,
            sanitize=True,
            workload_overrides={
                "records_per_thread": 200, "batch_records": 50,
            },
            overload_overrides={"slo_p99_ms": 1e9},
        ))
        info = result.extra["overload"]
        assert info["paced"] is False
        assert info["offered"] == 2 * 2 * 200
        assert info["shed"] == 0
        assert info["admitted"] == info["offered"]
        checks = result.extra["sanitizer_checks"]
        assert checks["backpressure-conservation"] > 0
        assert checks["no-silent-drop"] == 2  # one per executor
