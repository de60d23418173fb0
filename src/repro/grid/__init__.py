"""Declarative sweep grids — experiments as data, not functions.

The grid layer sits above ``runtime`` and below ``harness``: a
:class:`SweepGrid` names the axes (engine set, workload, node count,
buffer size, skew, shed policy, ...), the fixed knobs, a cell template,
and a report function; :func:`run_grid` expands the cartesian product in
declaration order, executes the cells through the shared serial/pool
runners, and renders the figure.  Importing this package registers every
built-in grid (the 14 paper figures/ablations plus the production
traffic suite) into :data:`~repro.grid.registry.GRIDS`.
"""

from repro.grid.cells import (
    Cell,
    PoolRunner,
    SerialRunner,
    end_to_end_scenario_cell,
    make_pool,
    run_cell,
    scenario_cell,
    transfer_cell,
)
from repro.grid.spec import (
    Claim,
    EngineSet,
    GridRun,
    SweepGrid,
    check_claims,
    expand_grid,
    parse_axis_spec,
    parse_axis_value,
    parse_set_spec,
    resolve_axes,
    resolve_fixed,
    run_grid,
)
from repro.grid.registry import (
    GRID_ALIASES,
    GRIDS,
    grid_names,
    known_grid_names,
    register_grid,
    resolve_grid,
)

# Importing the suites registers their grids (declaration order is the
# --list order: the paper figures first, then the traffic suites).
from repro.grid import figures as _figures  # noqa: F401
from repro.grid import traffic as _traffic  # noqa: F401

from repro.grid.figures import LINK_BANDWIDTH
from repro.grid.traffic import slo_report

__all__ = [
    "Cell",
    "Claim",
    "EngineSet",
    "GRID_ALIASES",
    "GRIDS",
    "GridRun",
    "LINK_BANDWIDTH",
    "PoolRunner",
    "SerialRunner",
    "SweepGrid",
    "check_claims",
    "end_to_end_scenario_cell",
    "expand_grid",
    "grid_names",
    "known_grid_names",
    "make_pool",
    "parse_axis_spec",
    "parse_axis_value",
    "parse_set_spec",
    "register_grid",
    "resolve_axes",
    "resolve_fixed",
    "resolve_grid",
    "run_cell",
    "run_grid",
    "scenario_cell",
    "slo_report",
    "transfer_cell",
]
