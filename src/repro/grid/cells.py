"""Picklable sweep cells and the runners that execute them.

Every point of a paper figure is one **cell**: an independent,
seed-deterministic simulation fully described by a picklable
``(kind, params)`` spec.  Grids build their cell list in *declaration
order*, hand it to a runner, and consume the results in that same order
— so the rendered tables are byte-identical whether the cells ran
serially or fanned out over a process pool.

That is the determinism contract (see ``docs/performance.md``):

* cells never share mutable state: each builds its own engine and
  simulator from the spec.  What consecutive cells of one process *do*
  share is immutable input — ``runtime.make_workload`` hands a cell the
  live workload of an equal earlier request, and the generated batches
  are read-only;
* the runner returns results positionally, never by completion order;
* all formatting happens in the parent process.

Two cell kinds cover every experiment:

* ``scenario`` — one :func:`repro.runtime.run_scenario` call from a
  declarative :class:`~repro.runtime.Scenario` spec (sanitizer/fault/
  elastic/overload hooks and the cost strategy all attach through it);
* ``transfer`` — one RO transfer benchmark, resolved through the
  engine registry's ``transfer_bench`` capability.
"""

from __future__ import annotations

from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Any, Optional, Sequence

from repro.common.errors import ConfigError

#: A picklable sweep cell: ``(kind, params)``.
Cell = tuple[str, dict]


# -- cell constructors -------------------------------------------------------

def scenario_cell(spec: Any) -> Cell:
    """One declarative run: a :class:`repro.runtime.Scenario` as a cell."""
    return ("scenario", spec.params())


def end_to_end_scenario_cell(
    system: str,
    workload_name: str,
    nodes: int,
    threads: int,
    workload_overrides: Optional[dict] = None,
    engine_overrides: Optional[dict] = None,
    **scenario_fields: Any,
) -> Cell:
    """One weak-scaling point as a *scenario* cell.

    Builds a plain :class:`~repro.runtime.Scenario`, so every generic
    hook — sanitizer, fault plan, rescale, overload, cost strategy —
    attaches uniformly via ``scenario_fields``.
    """
    from repro.runtime import Scenario

    return scenario_cell(
        Scenario(
            engine=system,
            workload=workload_name,
            nodes=nodes,
            threads=threads,
            workload_overrides=dict(workload_overrides or {}),
            engine_overrides=dict(engine_overrides or {}),
            **scenario_fields,
        )
    )


def transfer_cell(
    system: str,
    workload_name: str = "ro",
    workload_overrides: Optional[dict] = None,
    **bench_kwargs: Any,
) -> Cell:
    """One transfer-benchmark point (Fig. 8/9 and channel ablations).

    ``bench_kwargs`` go to the bench constructor (``threads``,
    ``buffer_bytes``, ``credits``, ``signal_writes``).
    """
    return (
        "transfer",
        {
            "system": system,
            "workload_name": workload_name,
            "workload_overrides": workload_overrides,
            "bench_kwargs": bench_kwargs,
        },
    )


# -- cell execution ----------------------------------------------------------

def run_cell(cell: Cell) -> Any:
    """Execute one cell (possibly in a worker process) and return its result.

    Imports are deferred so pool workers only pay for what their cell
    actually touches.
    """
    kind, params = cell
    if kind == "scenario":
        from repro.runtime import Scenario, run_scenario

        return run_scenario(Scenario(**params))
    if kind == "transfer":
        from repro.runtime import REGISTRY, make_workload

        workload = make_workload(
            params["workload_name"], **(params["workload_overrides"] or {})
        )
        bench = REGISTRY.transfer_bench(params["system"], **params["bench_kwargs"])
        return bench.run(workload)
    raise ConfigError(f"unknown cell kind {kind!r}")


# -- runners -----------------------------------------------------------------

class SerialRunner:
    """Run cells in the calling process, one after another."""

    jobs = 1

    def map(self, cells: Sequence[Cell]) -> list:
        return [run_cell(cell) for cell in cells]


class PoolRunner:
    """Fan cells out over a process pool; results come back in cell order.

    The executor is shared and thread-safe, so ``run all`` can drive one
    pool from several experiment threads and keep it saturated across
    experiment boundaries.
    """

    def __init__(self, executor: Executor, jobs: int):
        self._executor = executor
        self.jobs = jobs

    def map(self, cells: Sequence[Cell]) -> list:
        futures = [self._executor.submit(run_cell, cell) for cell in cells]
        # Collect positionally — completion order must never leak into
        # the report.
        return [future.result() for future in futures]


def make_pool(jobs: int) -> ProcessPoolExecutor:
    """The process pool backing ``-j N`` (caller owns shutdown)."""
    return ProcessPoolExecutor(max_workers=jobs)
