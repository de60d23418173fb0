"""Declarative scenarios: one spec, one entry point, every engine.

A :class:`Scenario` fully describes a run — engine name, workload name,
topology, engine knobs, cost strategy, seed, and the optional sanitizer
/ fault attachments — as plain picklable data.  :func:`run_scenario`
resolves it against the :data:`~repro.runtime.registry.REGISTRY` and
returns the shared :class:`~repro.core.engine.RunResult` envelope, so
experiment figures, the parallel sweep runner, the sanitizer, and the
chaos harness all execute runs the same way.
"""

from __future__ import annotations

import inspect
import json
import weakref
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Optional

from repro.common.errors import ConfigError, FaultError
from repro.common.suggest import unknown_name_message
from repro.core.engine import RunResult
from repro.runtime.registry import REGISTRY
from repro.workloads.base import Workload
from repro.workloads.cluster_monitoring import ClusterMonitoringWorkload
from repro.workloads.nexmark import (
    Nexmark7Workload,
    Nexmark8Workload,
    Nexmark11Workload,
)
from repro.workloads.readonly import ReadOnlyWorkload
from repro.workloads.traffic import SessionizedWorkload
from repro.workloads.ysb import YsbWorkload

#: Registered workloads: the class and its simulation-scale parameter
#: presets (see EXPERIMENTS.md).  The paper streams 1 GB per thread; we
#: scale volumes down — simulated rates are volume-independent once the
#: run reaches steady state.
WORKLOADS: dict[str, tuple[type[Workload], dict[str, Any]]] = {
    "ysb": (YsbWorkload,
            {"records_per_thread": 2500, "key_range": 100_000, "batch_records": 500}),
    "cm": (ClusterMonitoringWorkload,
           {"records_per_thread": 2500, "jobs": 50_000, "batch_records": 500}),
    "nb7": (Nexmark7Workload,
            {"records_per_thread": 2500, "key_range": 100_000, "batch_records": 500}),
    "nb8": (Nexmark8Workload,
            {"records_per_thread": 1000, "sellers": 20_000, "batch_records": 250}),
    "nb11": (Nexmark11Workload,
             {"records_per_thread": 1000, "sellers": 10_000, "batch_records": 250}),
    "ro": (ReadOnlyWorkload,
           {"records_per_thread": 60_000, "key_range": 100_000, "batch_records": 4000}),
    "sessions": (SessionizedWorkload,
                 {"records_per_thread": 2500, "users": 50_000, "batch_records": 250}),
}

#: Named cost strategies for the compiled-vs-interpreted ablation.
STRATEGIES = ("compiled", "interpreted")


#: Every instance :func:`make_workload` built that something still holds.
_live_workloads: "weakref.WeakValueDictionary[tuple, Workload]" = (
    weakref.WeakValueDictionary()
)
#: The instance the last :func:`make_workload` call returned, or ``None``.
_last_workload: Optional[Workload] = None


def make_workload(name: str, **overrides: Any) -> Workload:
    """A registered workload at bench scale, with overrides.

    Asking again for a ``(name, overrides)`` whose instance is still alive
    hands back that instance, flow cache included, so the cells of a
    sweep, a suite's baseline/treatment pairs, its oracles and any caller
    holding an input set share one generated copy.  Sharing is
    result-transparent: generation is a pure function of the key
    (``seed`` is an override like any other) and generated batches are
    read-only.  The memo itself keeps only the last instance alive, and
    lets go of it before building the next, so it never holds two input
    sets at once.  An unhashable override value cannot be compared and
    bypasses the memo.
    """
    global _last_workload
    try:
        cls, presets = WORKLOADS[name]
    except KeyError:
        raise ConfigError(
            unknown_name_message("workload", name, sorted(WORKLOADS))
        ) from None
    options = list(inspect.signature(cls).parameters)
    for option in overrides:
        if option not in options:
            raise ConfigError(
                unknown_name_message(f"{name} workload option", option, options)
            )
    parameters = {**presets, **overrides}
    # Typed, so that 1, 1.0 and True — equal and hash-equal — are three keys.
    key = (name, tuple(sorted(
        (option, type(value), value) for option, value in overrides.items()
    )))
    try:
        hash(key)
    except TypeError:
        return cls(**parameters)
    workload = _live_workloads.get(key)
    if workload is None:
        _last_workload = None  # free an unheld previous input set before building the next
        workload = _live_workloads[key] = cls(**parameters)
    _last_workload = workload
    return workload


def resolve_strategy(name: str):
    """Map a strategy name to a cost table."""
    from repro.core.costs import DEFAULT_SLASH_COSTS, interpreted

    if name == "compiled":
        return DEFAULT_SLASH_COSTS
    if name == "interpreted":
        return interpreted()
    raise ConfigError(f"unknown cost strategy {name!r}")


@dataclass
class Scenario:
    """One declarative run: engine + workload + topology + knobs + seed.

    Everything is plain data (strings, ints, dicts, and — for chaos
    scenarios — a picklable FaultPlan), so a Scenario can cross a
    process-pool boundary and be reconstructed from its ``params()``.
    """

    engine: str
    workload: str
    nodes: int = 1
    threads: int = 2
    workload_overrides: dict = field(default_factory=dict)
    engine_overrides: dict = field(default_factory=dict)
    #: Named cost strategy ("compiled"/"interpreted"); ``None`` keeps the
    #: engine's default cost table.
    strategy: Optional[str] = None
    #: Workload generator seed; ``None`` keeps each generator's default.
    seed: Optional[int] = None
    sanitize: bool = False
    fault_plan: Any = None
    fault_overrides: dict = field(default_factory=dict)
    #: How the engine recovers from control-plane faults ("epoch-buddy"
    #: or "async-snapshot"); ``None`` keeps the engine's default.
    recovery_strategy: Optional[str] = None
    #: Simulated instant a live rescale starts; ``None`` means static.
    rescale_at: Optional[float] = None
    #: Live-migration strategy ("all-at-once" or Megaphone-style "fluid").
    migration_strategy: str = "fluid"
    #: Extra ElasticPlan fields (action, add_nodes, drain_node,
    #: fluid_ranges, fluid_spread).
    rescale_overrides: dict = field(default_factory=dict)
    #: Declared p99 latency SLO; setting it arms the overload plane.
    slo_p99_ms: Optional[float] = None
    #: Shedding policy ("drop-oldest"/"probabilistic"/"fair"); ``None``
    #: paces and measures without shedding.
    shed_policy: Optional[str] = None
    #: Extra OverloadConfig fields (ingest_rate_records_per_s, tenants,
    #: flash_at_frac, mitigation, ...).
    overload_overrides: dict = field(default_factory=dict)

    def params(self) -> dict:
        """The picklable dict form used by parallel sweep cells."""
        # Every field, by construction; dict fields are shallow-copied so
        # the cell never aliases this spec (``asdict`` would also recurse
        # into the FaultPlan, which must stay an object).
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {
            name: dict(value) if isinstance(value, dict) else value
            for name, value in values
        }

    def to_json(self) -> str:
        """The replay wire format: ``params()`` as one JSON line, fields at
        their defaults left out, the fault plan as its seed plus one dict
        per event (``FaultKind`` by value).  Floats ``repr``-round-trip, so
        ``from_json(s.to_json()) == s`` and a replay is the same simulation.
        """
        blank = Scenario(self.engine, self.workload).params()
        data = {
            name: value for name, value in self.params().items()
            if name in ("engine", "workload") or value != blank[name]
        }
        if self.fault_plan is not None:
            data["fault_plan"] = {
                "seed": self.fault_plan.seed,
                "events": [asdict(event) for event in self.fault_plan.events],
            }
        return json.dumps(data, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Rebuild a scenario from a :meth:`to_json` line.

        The line is outside input: malformed JSON, an unknown field or
        engine and a malformed fault event are each a :class:`ConfigError`
        (an unknown workload or option is one at ``make_workload``), and
        the plan is rebuilt through ``FaultEvent(...)`` /
        ``plan.validate(nodes)`` like a hand-built one; an unknown
        override key fails :func:`check_overrides`.
        """
        from repro.faults.plan import FaultEvent, FaultKind, FaultPlan

        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"scenario is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError(
                f"scenario must be a JSON object, got {type(data).__name__}"
            )
        known = [f.name for f in fields(cls)]
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ConfigError("; ".join(
                unknown_name_message("scenario field", name, known)
                for name in unknown
            ))
        for required in ("engine", "workload"):
            if required not in data:
                raise ConfigError(f"scenario names no {required!r}")
        REGISTRY.spec(data["engine"])
        plan = data.get("fault_plan")
        if plan is not None:
            try:
                data["fault_plan"] = FaultPlan(
                    events=tuple(
                        FaultEvent(**{**event, "kind": FaultKind(event["kind"])})
                        for event in plan["events"]
                    ),
                    seed=plan["seed"],
                )
                data["fault_plan"].validate(data.get("nodes", 1))
            except (FaultError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError(
                    f"malformed fault plan: {type(exc).__name__}: {exc}"
                ) from None
        scenario = cls(**data)
        check_overrides(scenario)
        return scenario

    def repro_command(self) -> str:
        """A copy-pasteable command that re-checks exactly this scenario."""
        return f"python -m repro sanitize --replay '{self.to_json()}'"

    @property
    def is_elastic(self) -> bool:
        """Whether this scenario schedules a live rescale."""
        return self.rescale_at is not None

    @property
    def is_overload(self) -> bool:
        """Whether this scenario arms source-level admission control."""
        return (
            self.slo_p99_ms is not None
            or self.shed_policy is not None
            or bool(self.overload_overrides)
        )


def check_overrides(spec: Scenario) -> None:
    """Reject an unknown key in any plane's override dict, armed or not.

    ``fault_overrides`` feeds the :class:`FaultInjector` keywords,
    ``rescale_overrides`` the :class:`ElasticPlan` fields the scenario
    does not set itself, and ``overload_overrides`` the
    :class:`OverloadConfig` fields.  An unknown key is a
    :class:`ConfigError` with a did-you-mean suggestion.
    """
    from repro.elastic.plan import ElasticPlan
    from repro.faults.injector import FaultInjector
    from repro.overload.config import OverloadConfig

    checked = (
        ("fault override", spec.fault_overrides, [
            parameter.name
            for parameter in inspect.signature(FaultInjector).parameters.values()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        ]),
        ("rescale override", spec.rescale_overrides, [
            f.name for f in fields(ElasticPlan)
            if f.name not in ("rescale_at", "strategy")
        ]),
        ("overload override", spec.overload_overrides,
         [f.name for f in fields(OverloadConfig)]),
    )
    unknown = [
        unknown_name_message(kind, name, known)
        for kind, given, known in checked
        for name in sorted(set(given) - set(known))
    ]
    if unknown:
        raise ConfigError("; ".join(unknown))


def run_scenario(spec: Scenario) -> RunResult:
    """Execute one scenario through the registry and generic hooks.

    Each plane the scenario names is armed by the engine's ``attach_*``
    hook, which is also the one check that the engine supports it; the
    override keys of every plane are checked first.
    """
    check_overrides(spec)
    workload_overrides = dict(spec.workload_overrides)
    if spec.seed is not None:
        workload_overrides.setdefault("seed", spec.seed)
    workload = make_workload(spec.workload, **workload_overrides)

    engine_overrides = dict(spec.engine_overrides)
    if spec.strategy is not None:
        engine_overrides["costs"] = resolve_strategy(spec.strategy)
    engine = REGISTRY.create(spec.engine, spec.nodes, **engine_overrides)
    if spec.sanitize:
        engine.attach_sanitizer()
    if spec.fault_plan is not None:
        engine.attach_faults(
            spec.fault_plan, spec.fault_overrides,
            strategy=spec.recovery_strategy,
        )
    if spec.is_elastic:
        from repro.elastic.plan import ElasticPlan

        engine.attach_elastic(
            ElasticPlan(
                rescale_at=spec.rescale_at,
                strategy=spec.migration_strategy,
                **spec.rescale_overrides,
            )
        )
    if spec.is_overload:
        from repro.overload.config import OverloadConfig

        overload_fields = dict(spec.overload_overrides)
        if spec.slo_p99_ms is not None:
            overload_fields.setdefault("slo_p99_ms", spec.slo_p99_ms)
        if spec.shed_policy is not None:
            overload_fields.setdefault("shed_policy", spec.shed_policy)
        if spec.seed is not None:
            overload_fields.setdefault("seed", spec.seed)
        engine.attach_overload(OverloadConfig(**overload_fields))

    flows = workload.flows(spec.nodes, spec.threads)
    return engine.run(workload.build_query(), flows)
