"""What an engine can do, and the generic hooks that arm its planes.

Every engine under test (Slash, the UpPar/Flink baselines, LightSaber,
the sequential reference) declares what it can do once: the flags
nothing else can express (``capabilities``) and one supported set per
attachable plane.  A plane is supported exactly when its set is
non-empty; :func:`capabilities_of` derives the plane's flag from it.
The :class:`SystemHooks` ``attach_*`` methods are the one place a plane
is armed and its support checked, so asking an engine for a plane it
lacks fails fast with a :class:`~repro.common.errors.CapabilityError`
instead of crashing mid-simulation.

This module lives in ``core`` (below ``baselines`` and ``runtime`` in
the import layering) so every engine can inherit from it without an
upward import.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import CapabilityError

# Capability flags.  An engine's ``capabilities`` frozenset holds the
# declared ones; the registry adds the derived ones for sweep planning.
CAP_SCALE_OUT = "scale_out"  # >1 node topologies
CAP_JOINS = "joins"  # two-input (join) query plans
CAP_SESSION_WINDOWS = "session_windows"  # data-dependent window close
CAP_SANITIZE = "sanitize"  # runtime invariant checking hooks
# Derived: a plane flag from its non-empty supported set (PLANE_SETS),
# transfer_bench from a registered transfer factory (runtime.registry).
CAP_FAULT_INJECTION = "fault_injectable"  # accepts a FaultPlan
CAP_ELASTIC = "elastic"  # live partition migration / node join-leave
CAP_OVERLOAD = "overload"  # admission control + SLO-aware load shedding
CAP_TRANSFER_BENCH = "transfer_bench"  # has a raw-transfer micro-bench

#: Each attachable plane's flag -> the supported set that declares it.
PLANE_SETS = {
    CAP_FAULT_INJECTION: "supported_fault_kinds",
    CAP_ELASTIC: "supported_migration_strategies",
    CAP_OVERLOAD: "supported_shed_policies",
}


def capabilities_of(engine) -> frozenset:
    """``engine``'s declared flags plus the flag of every plane whose
    supported set is non-empty (``engine``: a class or an instance)."""
    return engine.capabilities | {
        flag for flag, supported in PLANE_SETS.items()
        if getattr(engine, supported)
    }


# Recovery strategies, in default order: an engine names the subset it
# implements in ``supported_recovery_strategies`` and runs the first one
# it supports unless asked otherwise; the chaos harness and Scenario
# thread the chosen one into the fault injector.
STRATEGY_EPOCH_BUDDY = "epoch-buddy"  # synchronous per-cut checkpoint + buddy
STRATEGY_ASYNC_SNAPSHOT = "async-snapshot"  # Chandy-Lamport marker rounds

RECOVERY_STRATEGIES = (STRATEGY_EPOCH_BUDDY, STRATEGY_ASYNC_SNAPSHOT)

# Migration strategies.  An elastic engine names the subset it
# implements in ``supported_migration_strategies``; Scenario and the
# elastic harness thread the chosen one into the migration coordinator.
MIGRATION_STRATEGY_ALL_AT_ONCE = "all-at-once"  # pause + bulk transfer
MIGRATION_STRATEGY_FLUID = "fluid"  # Megaphone-style per-range sub-moves

MIGRATION_STRATEGIES = (MIGRATION_STRATEGY_ALL_AT_ONCE, MIGRATION_STRATEGY_FLUID)

# Load-shedding policies.  An overload-capable engine names the subset
# it implements in ``supported_shed_policies``; Scenario and the
# overload harness thread the chosen one into the overload coordinator.
SHED_POLICY_DROP_OLDEST = "drop-oldest"  # shed the whole late batch
SHED_POLICY_PROBABILISTIC = "probabilistic"  # seeded per-record sampling
SHED_POLICY_FAIR = "fair"  # equal shed *fraction* per tenant

SHED_POLICIES = (
    SHED_POLICY_DROP_OLDEST,
    SHED_POLICY_PROBABILISTIC,
    SHED_POLICY_FAIR,
)


class SystemHooks:
    """Mixin giving an engine the generic plane attach points.

    Engines declare ``capabilities`` and one supported set per plane
    (fault kinds are :class:`~repro.faults.plan.FaultKind` *values* as
    plain strings, so declaring support needs no import from the faults
    layer).  The ``attach_*`` methods are the only way to arm a plane:
    each checks support up front and returns ``self`` so they chain.
    """

    #: The flags no supported set can express (see the CAP_* comments).
    capabilities: frozenset = frozenset()
    #: FaultKind values (strings) the engine can absorb; empty means no
    #: fault plane.
    supported_fault_kinds: frozenset = frozenset()
    #: Recovery strategies the engine can drive (RECOVERY_STRATEGIES
    #: values); empty means faults are data-plane only.
    supported_recovery_strategies: frozenset = frozenset()
    #: Migration strategies the engine can execute (MIGRATION_STRATEGIES
    #: values); empty means no elastic plane.
    supported_migration_strategies: frozenset = frozenset()
    #: Shed policies the engine can execute (SHED_POLICIES values); empty
    #: means no overload plane.
    supported_shed_policies: frozenset = frozenset()

    # Attachment state consumed by each engine's run().  Class-level
    # defaults keep engines that never touch the hooks working unchanged.
    sanitize: bool = False
    fault_plan = None
    fault_overrides: dict = {}
    recovery_strategy: Optional[str] = None
    elastic_plan = None
    overload_config = None

    def attach_sanitizer(self):
        """Arm runtime invariant checking for the next run."""
        self._require(CAP_SANITIZE, "runtime sanitizer")
        self.sanitize = True
        return self

    def attach_faults(
        self,
        plan,
        overrides: Optional[dict] = None,
        strategy: Optional[str] = None,
    ):
        """Arm a chaos schedule (a FaultPlan) for the next run.

        ``strategy`` names the recovery strategy the run should use; it
        is validated against ``supported_recovery_strategies`` exactly
        like fault kinds against ``supported_fault_kinds``, so a plan
        naming a strategy the engine lacks fails fast instead of
        crashing mid-simulation.  Without one, the run uses the first of
        :data:`RECOVERY_STRATEGIES` the engine supports (none for an
        engine without a recovery plane).
        """
        self._require(CAP_FAULT_INJECTION, "fault injection")
        name = getattr(self, "name", type(self).__name__)
        asked = {str(event.kind.value) for event in plan}
        unsupported = asked - self.supported_fault_kinds
        if unsupported:
            raise CapabilityError(
                f"engine {name!r} cannot "
                f"absorb fault kind(s) {sorted(unsupported)}; supported: "
                f"{sorted(self.supported_fault_kinds)}"
            )
        supported = self.supported_recovery_strategies
        if strategy is None:
            strategy = next((s for s in RECOVERY_STRATEGIES if s in supported), None)
        elif strategy not in RECOVERY_STRATEGIES:
            raise CapabilityError(
                f"unknown recovery strategy {strategy!r}; known "
                f"strategies: {sorted(RECOVERY_STRATEGIES)}"
            )
        elif strategy not in supported:
            raise CapabilityError(
                f"engine {name!r} cannot recover via {strategy!r}; "
                "supported strategies: "
                f"{sorted(supported) or 'none (data-plane faults only)'}"
            )
        self.fault_plan = plan
        self.fault_overrides = dict(overrides or {})
        self.recovery_strategy = strategy
        return self

    def attach_elastic(self, plan):
        """Arm a live-migration schedule (an ElasticPlan) for the next run.

        Mirrors :meth:`attach_faults`: the plan's migration strategy is
        validated against ``supported_migration_strategies`` (with a
        did-you-mean suggestion on typos), so a scenario naming a
        strategy the engine lacks fails fast instead of crashing
        mid-simulation.
        """
        self._require(CAP_ELASTIC, "elastic rescaling")
        self._require_named(
            plan.strategy, MIGRATION_STRATEGIES,
            self.supported_migration_strategies,
            "migration strategy", "strategies", "migrate",
        )
        plan.validate()
        self.elastic_plan = plan
        return self

    def attach_overload(self, config):
        """Arm admission control + load shedding (an OverloadConfig).

        Mirrors :meth:`attach_elastic`: the config's shed policy is
        validated against ``supported_shed_policies`` (with a
        did-you-mean suggestion on typos) and the config validates
        itself, so a scenario naming a policy the engine lacks fails
        fast instead of crashing mid-simulation.
        """
        self._require(CAP_OVERLOAD, "overload admission control")
        if config.shed_policy is not None:
            self._require_named(
                config.shed_policy, SHED_POLICIES,
                self.supported_shed_policies,
                "shed policy", "policies", "shed",
            )
        config.validate()
        self.overload_config = config
        return self

    def _require(self, capability: str, feature: str) -> None:
        """Refuse a plane this engine lacks, naming what it does support."""
        has = capabilities_of(self)
        if capability not in has:
            name = getattr(self, "name", type(self).__name__)
            raise CapabilityError(
                f"engine {name!r} does not support {feature} "
                f"(missing capability {capability!r}; has: {sorted(has)})"
            )

    def _require_named(
        self, value, known: tuple, supported: frozenset,
        kind: str, plural: str, verb: str,
    ) -> None:
        """Known name, then supported name: a typo gets the did-you-mean
        and the known list, a real name this engine lacks gets its
        supported set."""
        if value not in known:
            from repro.common.suggest import did_you_mean

            message = f"unknown {kind} {value!r}"
            close = did_you_mean(str(value), known)
            if close:
                message += f" — did you mean {close!r}?"
            raise CapabilityError(message + f"; known {plural}: {sorted(known)}")
        if value not in supported:
            name = getattr(self, "name", type(self).__name__)
            raise CapabilityError(
                f"engine {name!r} cannot {verb} via {value!r}; "
                f"supported {plural}: {sorted(supported)}"
            )


def install_sanitizer(sim) -> None:
    """Attach the invariant sanitizer (plus a bounded tracer) to ``sim``.

    Shared by every engine's run() so sanitize runs use identical wiring
    regardless of the system under test.
    """
    from repro.sanitizer.invariants import Sanitizer
    from repro.simnet.trace import Tracer

    if sim.tracer is None:
        sim.tracer = Tracer(capacity=4096)
    sim.sanitize = Sanitizer(sim)
