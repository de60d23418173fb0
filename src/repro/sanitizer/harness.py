"""The ``python -m repro sanitize`` driver.

Draws ``--scenarios`` seed-reproducible cases, runs each through
:func:`~repro.sanitizer.scenarios.check_scenario` (the case against its
own fail-free run, the sequential reference oracle and the partitioned
baseline), and on failure greedily shrinks the case and prints a
copy-pasteable repro command.  ``--replay`` re-checks one exact case
from its JSON line — ``Scenario.to_json()``, the format
``repro_command`` emits — instead of drawing fresh ones.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.metrics.reporting import Report, TextTable
from repro.runtime import Scenario
from repro.sanitizer.scenarios import (
    CheckOutcome,
    check_scenario,
    generate_scenario,
    label,
)
from repro.sanitizer.shrinker import shrink


def run_sanitize(
    scenarios: int = 25,
    seed: int = 1,
    replay: Optional[str] = None,
    shrink_failures: bool = True,
    progress: Optional[Callable[[str], None]] = print,
    runner: Callable[..., CheckOutcome] = check_scenario,
) -> Report:
    """Run the differential oracle harness; returns a renderable report.

    The report's ``rows`` carry one machine-readable dict per case, its
    ``scenario`` being the materialised replay line; a ``failures`` note
    count of zero means the gate passed (the CLI exits non-zero
    otherwise).  ``runner`` is injectable for tests.
    """
    emit = progress if progress is not None else (lambda _line: None)
    if replay is not None:
        plan = [(Scenario.from_json(replay), None)]
        title = "sanitize: replay"
    else:
        plan = [generate_scenario(seed, index) for index in range(scenarios)]
        title = f"sanitize: {scenarios} scenarios (seed {seed})"

    report = Report(title)
    table = TextTable(title, ["#", "scenario", "checks", "verdict"])
    failed: list[CheckOutcome] = []
    for position, (case, placement) in enumerate(plan):
        outcome = runner(case, placement=placement)
        name = label(outcome.scenario, placement)
        verdict = "PASS" if outcome.ok else "FAIL"
        emit(f"[{position + 1}/{len(plan)}] {name} ... {verdict}")
        total_checks = sum(outcome.checks.values())
        table.add_row(position + 1, name, total_checks, verdict)
        report.rows.append(
            {
                "scenario": outcome.scenario.to_json(),
                "ok": outcome.ok,
                "failures": list(outcome.failures),
                "checks": dict(outcome.checks),
                "horizon_s": outcome.horizon_s,
            }
        )
        if not outcome.ok:
            failed.append(outcome)
            for line in outcome.failures:
                emit(f"    {line}")
    report.tables.append(table)

    if not failed:
        report.notes.append("0 failures: zero invariant violations, zero oracle mismatches")
        return report

    report.notes.append(f"{len(failed)} of {len(plan)} scenarios FAILED")
    for outcome in failed:
        smallest = case = outcome.scenario
        if shrink_failures:
            emit(f"shrinking failing scenario: {label(case)}")
            smallest, attempts = shrink(case, outcome.horizon_s, runner)
            emit(f"  shrunk to {label(smallest)} in {attempts} attempts")
        report.notes.append(
            ("repro (minimized): " if shrink_failures else "repro: ")
            + smallest.repro_command()
        )
        emit("  " + smallest.repro_command())
    return report


def report_failed(report: Report) -> bool:
    """Whether a :func:`run_sanitize` report recorded any failure."""
    return any(not row["ok"] for row in report.rows)
