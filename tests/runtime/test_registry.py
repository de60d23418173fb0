"""Engine registry: lookup, suggestions, and capability gating."""

import pytest

from repro.common.errors import CapabilityError, ConfigError
from repro.core.engine import SlashEngine
from repro.faults.plan import FaultPlan
from repro.runtime import (
    BENCH_EPOCH_BYTES,
    CAP_FAULT_INJECTION,
    CAP_SANITIZE,
    CAP_SCALE_OUT,
    CAP_TRANSFER_BENCH,
    EngineRegistry,
    EngineSpec,
    REGISTRY,
)


def test_registry_names_cover_all_engines():
    assert REGISTRY.names() == ("flink", "uppar", "slash", "lightsaber", "reference")


def test_unknown_engine_raises_with_suggestion():
    with pytest.raises(ConfigError, match=r"did you mean 'slash'\?"):
        REGISTRY.spec("slsh")


def test_unknown_engine_lists_known_names():
    with pytest.raises(ConfigError, match="known: flink, uppar, slash"):
        REGISTRY.create("spark", nodes=2)


def test_create_slash_uses_bench_epoch_default():
    engine = REGISTRY.create("slash", nodes=2)
    assert isinstance(engine, SlashEngine)
    assert engine.epoch_bytes == BENCH_EPOCH_BYTES


def test_capability_flags_per_engine():
    assert CAP_SCALE_OUT in REGISTRY.spec("uppar").capabilities
    assert CAP_SCALE_OUT not in REGISTRY.spec("lightsaber").capabilities
    assert CAP_FAULT_INJECTION in REGISTRY.spec("slash").capabilities
    assert CAP_FAULT_INJECTION in REGISTRY.spec("flink").capabilities
    assert CAP_FAULT_INJECTION not in REGISTRY.spec("lightsaber").capabilities


def test_require_missing_capability_fails_fast():
    """Asking LightSaber for fault injection is a capability error raised
    before any simulation starts, not a mid-run crash."""
    with pytest.raises(CapabilityError, match="lightsaber"):
        REGISTRY.require("lightsaber", CAP_FAULT_INJECTION)
    # Satisfied requirements return the spec.
    assert REGISTRY.require("lightsaber", CAP_SANITIZE).name == "lightsaber"


def test_attach_faults_rejected_without_capability():
    plan = FaultPlan.preset("nic-flap", seed=7, executors=2, horizon_s=1.0)
    with pytest.raises(CapabilityError, match="fault injection"):
        REGISTRY.create("lightsaber").attach_faults(plan)


def test_attach_faults_rejects_unsupported_kinds():
    """Flink has a fault plane but no crash recovery: a node-crash plan
    must be refused at attach time with the supported kinds listed."""
    plan = FaultPlan.preset("leader-crash", seed=7, executors=3, horizon_s=1.0)
    with pytest.raises(CapabilityError, match="node-crash"):
        REGISTRY.create("flink", nodes=3).attach_faults(plan)


def _attach_elastic(engine, strategy):
    from repro.elastic.plan import ElasticPlan

    engine.attach_elastic(ElasticPlan(rescale_at=0.1, strategy=strategy))


def _attach_overload(engine, policy):
    from repro.overload.config import OverloadConfig

    engine.attach_overload(OverloadConfig(shed_policy=policy))


@pytest.mark.parametrize("attach,name,message", [
    (_attach_elastic, "fluud",
     "unknown migration strategy 'fluud' — did you mean 'fluid'?; "
     "known strategies: ['all-at-once', 'fluid']"),
    (_attach_elastic, "xyzzy",
     "unknown migration strategy 'xyzzy'; "
     "known strategies: ['all-at-once', 'fluid']"),
    (_attach_elastic, "all-at-once",
     "engine 'slash' cannot migrate via 'all-at-once'; "
     "supported strategies: ['fluid']"),
    (_attach_overload, "fare",
     "unknown shed policy 'fare' — did you mean 'fair'?; "
     "known policies: ['drop-oldest', 'fair', 'probabilistic']"),
    (_attach_overload, "lifo",
     "unknown shed policy 'lifo'; "
     "known policies: ['drop-oldest', 'fair', 'probabilistic']"),
    (_attach_overload, "drop-oldest",
     "engine 'slash' cannot shed via 'drop-oldest'; "
     "supported policies: ['fair']"),
])
def test_known_name_then_supported_name_messages(attach, name, message):
    """Both planes word 'unknown name' and 'known but unsupported' the
    same way; the full messages are pinned (captured before the two
    checks were folded into one helper)."""
    engine = REGISTRY.create("slash", nodes=2)
    engine.supported_migration_strategies = frozenset({"fluid"})
    engine.supported_shed_policies = frozenset({"fair"})
    with pytest.raises(CapabilityError) as exc:
        attach(engine, name)
    assert str(exc.value) == message


def test_transfer_bench_gated_by_capability():
    assert CAP_TRANSFER_BENCH not in REGISTRY.spec("flink").capabilities
    with pytest.raises(CapabilityError):
        REGISTRY.transfer_bench("flink", threads=2)
    bench = REGISTRY.transfer_bench("slash", threads=2, buffer_bytes=16384)
    assert type(bench).__name__ == "SlashTransferBench"


def test_duplicate_registration_rejected():
    registry = EngineRegistry()
    spec = EngineSpec(name="x", factory=lambda nodes, **kw: None,
                      capabilities=frozenset(), description="test")
    registry.register(spec)
    with pytest.raises(ConfigError, match="registered twice"):
        registry.register(spec)
