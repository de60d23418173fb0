"""The runtime: one layer between the engines and the harness.

* :mod:`repro.runtime.registry` — name → engine factory, with the
  capability flags derived from what each engine declares
  (:data:`REGISTRY` holds Slash, UpPar, Flink, LightSaber, and the
  sequential reference oracle);
* :mod:`repro.runtime.scenario` — the declarative :class:`Scenario` spec
  and the single :func:`run_scenario` entry point, which arms each plane
  through the engine's ``attach_*`` hooks;
* :mod:`repro.runtime.oracle` — the one result differ shared by the
  experiment figures, the sanitizer, and the chaos harness.

The capability vocabulary and :class:`SystemHooks` are re-exported from
:mod:`repro.core.system` so runtime callers never import ``core``.
"""

from repro.core.system import (
    CAP_ELASTIC,
    CAP_FAULT_INJECTION,
    CAP_JOINS,
    CAP_OVERLOAD,
    CAP_SANITIZE,
    CAP_SCALE_OUT,
    CAP_SESSION_WINDOWS,
    CAP_TRANSFER_BENCH,
    MIGRATION_STRATEGIES,
    RECOVERY_STRATEGIES,
    SHED_POLICIES,
    STRATEGY_ASYNC_SNAPSHOT,
    STRATEGY_EPOCH_BUDDY,
    SystemHooks,
)
from repro.runtime.oracle import ResultDiff, diff_aggregates, diff_results
from repro.runtime.registry import (
    BENCH_EPOCH_BYTES,
    EngineRegistry,
    EngineSpec,
    REGISTRY,
)
from repro.runtime.scenario import (
    Scenario,
    STRATEGIES,
    WORKLOADS,
    make_workload,
    resolve_strategy,
    run_scenario,
)

__all__ = [
    "BENCH_EPOCH_BYTES",
    "CAP_ELASTIC",
    "CAP_FAULT_INJECTION",
    "CAP_JOINS",
    "CAP_OVERLOAD",
    "CAP_SANITIZE",
    "CAP_SCALE_OUT",
    "CAP_SESSION_WINDOWS",
    "CAP_TRANSFER_BENCH",
    "EngineRegistry",
    "EngineSpec",
    "MIGRATION_STRATEGIES",
    "RECOVERY_STRATEGIES",
    "REGISTRY",
    "ResultDiff",
    "Scenario",
    "SHED_POLICIES",
    "STRATEGIES",
    "STRATEGY_ASYNC_SNAPSHOT",
    "STRATEGY_EPOCH_BUDDY",
    "SystemHooks",
    "WORKLOADS",
    "diff_aggregates",
    "diff_results",
    "make_workload",
    "resolve_strategy",
    "run_scenario",
]
