"""Greedy minimization of a failing case.

:func:`shrink` takes a materialised :class:`~repro.runtime.Scenario` that
fails, the horizon its instants were placed on, and a ``check`` that
re-runs a candidate.  It walks a fixed candidate order (``_candidates``),
keeping any candidate that still fails and restarting from the top, until
none fails or the attempt budget runs out.  Each accepted step strictly
reduces the case, so the loop terminates.

A step that changes the fail-free horizon would strand the case's
absolute instants (a crash past the end of a halved run never fires), so
``check`` is told the horizon the candidate was placed on and re-times
it onto its own (:func:`~repro.sanitizer.scenarios.retimed`); the
outcome carries the re-timed case and the new horizon.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.common.errors import FaultError
from repro.runtime import Scenario
from repro.sanitizer.scenarios import KEYSPACE_OPTION, CheckOutcome, without

#: Floors below which shrinking a dimension stops.  Records must keep at
#: least one batch per worker flowing; two nodes and two threads are the
#: minimum at which the distributed protocol (and UpPar) still runs.
MIN_RECORDS = 20
MIN_NODES = 2
MIN_THREADS = 2
MIN_BATCH = 16
MIN_KEYSPACE = 4


def _halved(case: Scenario, option: Optional[str], floor: int) -> Scenario:
    """``case`` with one workload option halved; ``case`` itself at the floor."""
    value = case.workload_overrides.get(option)
    if value is None or value // 2 < floor:
        return case
    return replace(
        case, workload_overrides={**case.workload_overrides, option: value // 2}
    )


def _one_node_fewer(case: Scenario) -> Scenario:
    """``case`` on one node fewer; ``case`` itself if its fault plan would
    not validate there (a target outside the deployment, no survivor: what
    keeps the two crashes of a ``MULTI_CRASH_PRESETS`` plan on three nodes)
    — the plan itself would become the failure.  A leave that drains the
    last node keeps draining the last node."""
    nodes = case.nodes - 1
    if nodes < MIN_NODES:
        return case
    if case.fault_plan is not None:
        try:
            case.fault_plan.validate(nodes)
        except FaultError:
            return case
    rescale = dict(case.rescale_overrides)
    if rescale.get("drain_node") is not None:
        rescale["drain_node"] = min(rescale["drain_node"], nodes - 1)
    return replace(case, nodes=nodes, rescale_overrides=rescale)


def _candidates(case: Scenario) -> list[Scenario]:
    """Strictly-smaller variants, most-impactful reduction first: halve
    the records, drop the fault plan, a single fault event, the rescale,
    the overload plane, a node, a thread, halve batch and key space."""
    plan = case.fault_plan
    events = plan.events if plan is not None and len(plan) > 1 else ()
    smaller = [
        _halved(case, "records_per_thread", MIN_RECORDS),
        without(case, "fault"),
        *(
            replace(case, fault_plan=replace(
                plan, events=events[:index] + events[index + 1:]
            ))
            for index in range(len(events))
        ),
        without(case, "rescale"),
        without(case, "overload"),
        _one_node_fewer(case),
        replace(case, threads=max(case.threads - 1, MIN_THREADS)),
        _halved(case, "batch_records", MIN_BATCH),
        _halved(case, KEYSPACE_OPTION.get(case.workload), MIN_KEYSPACE),
    ]
    return [candidate for candidate in smaller if candidate != case]


def shrink(
    case: Scenario,
    horizon_s: float,
    check: Callable[..., CheckOutcome],
    max_attempts: int = 48,
) -> tuple[Scenario, int]:
    """Minimize ``case`` while ``check(candidate, placed_on=horizon_s)`` fails.

    ``horizon_s`` is the fail-free horizon ``case`` was placed on.
    Returns ``(smallest_failing_case, attempts_used)``.  The input must
    already fail; it is returned unchanged if no smaller candidate
    reproduces the failure.
    """
    attempts = 0
    queue = _candidates(case)
    while queue and attempts < max_attempts:
        attempts += 1
        outcome = check(queue.pop(0), placed_on=horizon_s)
        if not outcome.ok:
            case = outcome.scenario
            # A fail-free run that itself failed reports no horizon.
            horizon_s = outcome.horizon_s or horizon_s
            queue = _candidates(case)
    return case, attempts
