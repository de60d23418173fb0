"""Shared benchmark plumbing.

Every bench runs its experiment once (``benchmark.pedantic`` with a
single round — the timing of interest is *simulated* time; wall time is
reported by pytest-benchmark as a by-product), registers the rendered
report, and the session prints all reports in the terminal summary and
writes them to ``benchmarks/results/``.
"""

from __future__ import annotations

import pathlib

_REPORTS: list[tuple[str, str]] = []

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def figure(name: str, axes: dict | None = None, **fixed):
    """Run one registered figure grid with axis / fixed-knob overrides."""
    # Lazy: benchmarks/ledger/ tests put src/ on sys.path after this loads.
    from repro.grid import resolve_grid, run_grid

    return run_grid(resolve_grid(name), axes, fixed)


def register_report(name: str, rendered: str) -> None:
    """Record a rendered experiment report for the session summary."""
    _REPORTS.append((name, rendered))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORTS:
        return
    terminalreporter.write_sep("=", "paper reproduction reports")
    for name, rendered in _REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(rendered)
    terminalreporter.write_line("")
    terminalreporter.write_line(
        f"(reports also written to {RESULTS_DIR}/<experiment>.txt)"
    )
