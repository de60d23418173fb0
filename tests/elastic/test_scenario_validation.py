"""Rescale scenario validation: fail fast, name what *would* work.

Satellite coverage for the elastic configuration surface: a scenario
asking a non-elastic engine to rescale, naming an unknown migration
strategy, or scheduling the rescale past the workload horizon must fail
with a :class:`CapabilityError` / :class:`ConfigError` whose message
names the supported set (with a did-you-mean on typos) — never a
mid-simulation crash.
"""

import pytest

from repro.common.errors import CapabilityError, ConfigError, StateError
from repro.elastic.plan import ElasticPlan
from repro.runtime import REGISTRY, Scenario, run_scenario

BASE = dict(
    workload="ysb",
    nodes=2,
    threads=2,
    workload_overrides={"records_per_thread": 300},
    seed=3,
)


class TestCapabilityGate:
    def test_non_elastic_engine_names_the_capable_set(self):
        spec = Scenario(engine="flink", rescale_at=0.01, **BASE)
        with pytest.raises(CapabilityError) as exc:
            run_scenario(spec)
        message = str(exc.value)
        assert "engine 'flink' does not support elastic rescaling" in message
        assert "has: ['fault_injectable', 'joins', 'sanitize'," in message

    def test_unknown_strategy_gets_a_did_you_mean(self):
        spec = Scenario(
            engine="slash", rescale_at=0.01,
            migration_strategy="fluud", **BASE,
        )
        with pytest.raises(CapabilityError) as exc:
            run_scenario(spec)
        message = str(exc.value)
        assert "did you mean 'fluid'" in message
        assert "all-at-once" in message

    def test_attach_elastic_validates_the_plan(self):
        engine = REGISTRY.create("slash", 2)
        with pytest.raises(ConfigError, match="drain_node"):
            engine.attach_elastic(ElasticPlan(rescale_at=0.01, action="leave"))

    @pytest.mark.parametrize("strategy", ["all-at-once", "fluid"])
    def test_uppar_rescales_under_crash_recovery(self, strategy):
        """A live rescale and crash recovery attach together on UpPar,
        and the crashed, rescaled run still equals the static one."""
        from repro.faults.plan import FaultPlan, fault_tunables

        static = run_scenario(Scenario(engine="uppar", **BASE))
        horizon = static.sim_seconds
        faulted = run_scenario(Scenario(
            engine="uppar",
            fault_plan=FaultPlan.preset("leader-crash", 7, 2, horizon),
            fault_overrides=fault_tunables(horizon),
            rescale_at=horizon * 0.3,
            migration_strategy=strategy,
            rescale_overrides={"action": "join", "add_nodes": 1},
            **BASE,
        ))
        assert faulted.extra["faults"]["crashes"]
        assert faulted.aggregates == static.aggregates

    def test_static_scenario_never_consults_the_gate(self):
        # No rescale_at: flink runs fine — the gate is elastic-only.
        result = run_scenario(Scenario(engine="flink", **BASE))
        assert result.aggregates


class TestRescalePastHorizon:
    @pytest.mark.parametrize("engine", ["slash", "uppar"])
    def test_rescale_past_horizon_is_a_config_error(self, engine):
        spec = Scenario(
            engine=engine, rescale_at=1e9,
            rescale_overrides={"action": "rebalance"}, **BASE,
        )
        with pytest.raises(ConfigError, match="after the workload horizon"):
            run_scenario(spec)


class TestHarnessValidation:
    def test_rescale_frac_bounds(self):
        from repro.harness.suites import run_elastic

        with pytest.raises(StateError, match="rescale_frac"):
            run_elastic(rescale_frac=1.5, records_per_thread=300)

    def test_unknown_engine_fails_before_any_run(self):
        from repro.harness.suites import run_elastic

        with pytest.raises(ConfigError, match="slash"):
            run_elastic(system="slassh", records_per_thread=300)

    def test_non_elastic_engine_fails_before_the_baseline_run(
        self, monkeypatch
    ):
        """Refused up front like ``chaos`` and ``overload``: the static
        baseline never runs, so the error carries no rescale instant."""
        import repro.runtime
        from repro.harness.suites import run_elastic

        def no_run(spec):
            raise AssertionError(f"simulated {spec.engine} before the gate")

        monkeypatch.setattr(repro.runtime, "run_scenario", no_run)
        with pytest.raises(CapabilityError, match="'elastic'"):
            run_elastic(system="flink", records_per_thread=300)
