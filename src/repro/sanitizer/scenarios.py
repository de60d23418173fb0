"""Seed-reproducible fuzz cases for the differential oracle.

A fuzz case *is* a :class:`repro.runtime.Scenario`, and
:func:`repro.runtime.run_scenario` is the only thing here that arms a
plane.  :func:`generate_scenario` draws a case deterministically from
``(seed, index)``, so ``python -m repro sanitize --scenarios N --seed S``
always replays the same N cases; :func:`check_scenario` runs a case
against ``dataclasses.replace`` variants of itself — the sequential
reference, its own fail-free run, the partitioned UpPar baseline — and
reports every invariant violation and oracle mismatch as a failure line.

A fault preset and a rescale instant are placed on a horizon only the
fail-free run knows, so a *drawn* case travels with a private placement
tuple until the check has made that run; what the check hands back, and
what ``--replay`` takes (``Scenario.to_json``), is fully materialised.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.common.errors import ReproError
from repro.common.rng import RngTree
from repro.core.system import (
    SHED_POLICIES,
    STRATEGY_ASYNC_SNAPSHOT,
    STRATEGY_EPOCH_BUDDY,
)
from repro.faults.plan import (
    MULTI_CRASH_PRESETS,
    PRESETS,
    FaultPlan,
    fault_tunables,
)
from repro.runtime import REGISTRY, Scenario, diff_results, run_scenario

#: Workloads the sampler draws from.  The join workloads (nb8, nb11)
#: never get a fault plan: crash recovery deliberately rejects joins and
#: session windows (FaultInjector.register raises), and the chaos
#: invariants are defined over windowed aggregates.
AGG_WORKLOADS = ("ysb", "cm", "nb7")
SCENARIO_WORKLOADS = AGG_WORKLOADS + ("nb8", "nb11")

#: Which generator kwarg bounds the key space of each workload.
KEYSPACE_OPTION = {
    "ysb": "key_range",
    "cm": "jobs",
    "nb7": "key_range",
    "nb8": "sellers",
    "nb11": "sellers",
}

_ENGINE = "slash"
_EPOCH_CHOICES = (8 * 1024, 32 * 1024, 128 * 1024)
_BATCH_CHOICES = (32, 64, 128)
_CREDIT_CHOICES = (4, 8)

# The two axes below hold only values a scan at HEAD showed green (the
# table is in docs/testing.md, "The differential oracle harness"); the
# red ones are pinned in tests/sanitizer/corpus/known_red.jsonl instead.
#: Recovery strategies, by whether the drawn preset crashes a node:
#: async-snapshot under a crash raises ``snapshot-consistency`` (corpus
#: rows "draw-9-12" and "ledger-ysb").
_RECOVERIES = {
    False: (STRATEGY_EPOCH_BUDDY, STRATEGY_ASYNC_SNAPSHOT),
    True: (STRATEGY_EPOCH_BUDDY,),
}
#: ``(migration strategy, action)``, placed at 20-60 % of the horizon.  No
#: all-at-once: 37 of its 336 scanned cases are red, and handing off after
#: its global stall instead of before leaves those rows' failures as they
#: are.  The leave is drawn only without a fault plan (fault x leave
#: scanned 976 / 977, the red one "draw-2-25"), hence last.
_RESCALES = (("fluid", "join"), ("fluid", "leave"))

#: Scenario fields each attachable plane owns.
PLANES = {
    "fault": ("fault_plan", "fault_overrides", "recovery_strategy"),
    "rescale": ("rescale_at", "migration_strategy", "rescale_overrides"),
    "overload": ("slo_p99_ms", "shed_policy", "overload_overrides"),
}


def without(case: Scenario, *planes: str) -> Scenario:
    """``case`` with the named planes' fields back at their defaults."""
    blank = Scenario(case.engine, case.workload)
    return replace(case, **{
        name: getattr(blank, name) for plane in planes for name in PLANES[plane]
    })


def generate_scenario(seed: int, index: int) -> tuple[Scenario, tuple]:
    """Draw case ``index`` of the stream derived from ``seed``.

    Returns ``(case, placement)``: the case minus its time-valued fields,
    and the private ``(fault preset, fault seed, rescale fraction)`` that
    :func:`check_scenario` places on the fail-free horizon.  Each index
    gets an independent generator, so cases can be drawn out of order;
    a new axis is drawn *after* the existing ones, so ``(seed, index)``
    keeps naming the case it named before.
    """
    rng = RngTree(seed).generator("sanitize", index)
    workload = str(rng.choice(list(SCENARIO_WORKLOADS)))
    # Small key spaces force cross-partition contention (every executor
    # helps on most partitions); larger ones exercise sparse deltas.
    sizes = {
        "records_per_thread": int(rng.integers(150, 501)),
        "batch_records": int(rng.choice(_BATCH_CHOICES)),
        KEYSPACE_OPTION[workload]: int(rng.integers(8, 200)),
    }
    nodes = int(rng.integers(2, 5))
    threads = int(rng.integers(2, 4))  # UpPar needs >= 2 threads/node
    knobs = {
        "epoch_bytes": int(rng.choice(_EPOCH_CHOICES)),
        "credits": int(rng.choice(_CREDIT_CHOICES)),
    }
    input_seed = int(rng.integers(0, 2**31))
    preset: Optional[str] = None
    fault_seed = 0
    if workload in AGG_WORKLOADS and rng.random() < 0.5:
        # Multi-crash presets (cascade, buddy-crash) need a third
        # executor to survive.
        candidates = [
            p for p in PRESETS
            if nodes >= 3 or p not in MULTI_CRASH_PRESETS
        ]
        preset = str(rng.choice(candidates))
        fault_seed = int(rng.integers(0, 2**31))
    planes: dict = {}
    if rng.random() < 0.3:
        # Unpaced admission with an unreachable SLO: nothing sheds, so the
        # comparison stays exact, but every batch crosses the admission
        # hook — arming backpressure-conservation per batch and the
        # end-of-run no-silent-drop audit.
        planes.update(
            shed_policy=str(rng.choice(list(SHED_POLICIES))), slo_p99_ms=1e9
        )
    if preset is not None:
        supported = REGISTRY.create(_ENGINE).supported_recovery_strategies
        crashes = bool(
            FaultPlan.preset(preset, fault_seed, nodes, 1.0).crash_targets()
        )
        planes["recovery_strategy"] = str(rng.choice(
            [s for s in _RECOVERIES[crashes] if s in supported]
        ))
    rescale_frac: Optional[float] = None
    if rng.random() < 0.5:
        choices = _RESCALES if preset is None else _RESCALES[:1]
        strategy, action = choices[int(rng.integers(0, len(choices)))]
        rescale_frac = 0.2 + 0.4 * float(rng.random())
        planes.update(
            migration_strategy=strategy,
            rescale_overrides=(
                {"action": "join", "add_nodes": 1} if action == "join"
                else {"action": "leave", "drain_node": nodes - 1}
            ),
        )
    case = Scenario(
        engine=_ENGINE, workload=workload, nodes=nodes, threads=threads,
        workload_overrides=sizes, engine_overrides=knobs,
        seed=input_seed, sanitize=True, **planes,
    )
    return case, (preset, fault_seed, rescale_frac)


def _placed(case: Scenario, placement: tuple, horizon: float) -> Scenario:
    """Materialise a drawn case on its fail-free horizon."""
    preset, fault_seed, rescale_frac = placement
    if preset is not None:
        case = replace(
            case,
            fault_plan=FaultPlan.preset(preset, fault_seed, case.nodes, horizon),
            fault_overrides=fault_tunables(horizon, case.recovery_strategy),
        )
    if rescale_frac is not None:
        case = replace(case, rescale_at=horizon * rescale_frac)
    return case


def retimed(case: Scenario, ratio: float) -> Scenario:
    """``case`` with every absolute instant and duration scaled by ``ratio``:
    the fault events, the time-valued (``*_s``) ``fault_overrides`` and
    ``rescale_at`` — as if placed on a horizon ``ratio`` times as long."""
    plan = case.fault_plan
    if plan is not None:
        plan = replace(plan, events=tuple(
            replace(e, at_s=e.at_s * ratio, duration_s=e.duration_s * ratio)
            for e in plan.events
        ))
    return replace(
        case,
        fault_plan=plan,
        fault_overrides={
            name: value * ratio if name.endswith("_s") else value
            for name, value in case.fault_overrides.items()
        },
        rescale_at=None if case.rescale_at is None else case.rescale_at * ratio,
    )


def label(case: Scenario, placement: Optional[tuple] = None) -> str:
    """One-line description; a drawn case names its fault preset."""
    knobs = {**case.workload_overrides, **case.engine_overrides}
    text = f"{case.workload} x{knobs.pop('records_per_thread', '?')}"
    text += f" on {case.nodes}x{case.threads}"
    if knobs:
        text += " (" + ", ".join(f"{k}={v}" for k, v in knobs.items()) + ")"
    if placement is not None and placement[0] is not None:
        text += f" fault={placement[0]}"
    elif case.fault_plan is not None:
        text += " fault=" + "+".join(e.kind.value for e in case.fault_plan)
    if case.shed_policy is not None:
        text += f" overload={case.shed_policy}"
    if case.recovery_strategy is not None:
        text += f" recovery={case.recovery_strategy}"
    if case.rescale_overrides:
        action = case.rescale_overrides.get("action", "join")
        text += f" rescale={case.migration_strategy}-{action}"
    return text


@dataclass
class CheckOutcome:
    """What one check found."""

    #: The case as checked: materialised, and re-timed if it was asked to be.
    scenario: Scenario
    failures: list = field(default_factory=list)
    #: Sanitizer check counts from the last sanitized run of the case's
    #: own engine — proof the invariant hooks actually fired.
    checks: dict = field(default_factory=dict)
    #: Simulated length of the fail-free variant.
    horizon_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def _run(outcome: CheckOutcome, what: str, spec: Scenario, oracle):
    """Run one variant and diff it against the oracle; a finding becomes a
    failure line, not an exception.  ``None`` when the run itself failed."""
    try:
        result = run_scenario(spec)
    except ReproError as exc:  # an InvariantViolation is one
        outcome.failures.append(f"{what} run failed: {type(exc).__name__}: {exc}")
        return None
    diff = diff_results(oracle, result)
    if not diff.ok:
        outcome.failures.append(f"{what} vs reference oracle: {diff.describe()}")
    return result


def check_scenario(
    case: Scenario,
    placement: Optional[tuple] = None,
    placed_on: Optional[float] = None,
) -> CheckOutcome:
    """Check one case: itself vs fail-free vs oracle vs baseline.

    Never raises for a *finding*: invariant violations and oracle
    mismatches come back as ``outcome.failures`` lines so the harness can
    count, report, and shrink them.  Once the fail-free run has fixed the
    horizon, a drawn case is materialised from its ``placement``, and a
    shrinking candidate whose instants were placed on the horizon
    ``placed_on`` is re-timed by the ratio of the two;
    ``outcome.scenario`` is the case actually checked.
    """
    outcome = CheckOutcome(case)
    fail_free = without(case, "fault", "rescale")
    bare = replace(
        without(fail_free, "overload"),
        engine_overrides={}, strategy=None, sanitize=False,
    )
    oracle = run_scenario(replace(bare, engine="reference"))

    clean = _run(outcome, f"fail-free {case.engine}", fail_free, oracle)
    if clean is None:
        return outcome
    outcome.checks = dict(clean.extra.get("sanitizer_checks", {}))
    outcome.horizon_s = horizon = clean.sim_seconds
    if placement is not None:
        case = _placed(case, placement, horizon)
    elif placed_on:
        case = retimed(case, horizon / placed_on)
    outcome.scenario = case

    # Partitioned baseline: UpPar re-partitions instead of sharing state,
    # so agreement here rules out bugs the two architectures share with
    # neither the oracle nor each other.  Sanitized through the same
    # generic hook — its channels feed the same checkers.
    uppar = replace(bare, engine="uppar", sanitize=True)
    if _run(outcome, "uppar baseline", uppar, oracle) is None:
        return outcome

    if without(case, "fault", "rescale") != case:
        treated = _run(outcome, f"{case.engine} with every plane", case, oracle)
        if treated is not None:
            outcome.checks = dict(treated.extra.get("sanitizer_checks", {}))
    return outcome
