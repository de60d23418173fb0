"""A run frees the rack it built: no reference cycles survive it.

Every engine tears its simulation down once its result is built
(``Simulator.close``), and no parent is held by its children, so the
simulated rack — cluster, nodes, cores, links, channels, queue pairs,
stores, executors and every attached plane — is freed by reference
counting the moment the run returns.  A cycle anywhere in it would leave
the whole rack to the cyclic collector, and peak memory would follow the
collector's schedule instead of the program.

The matrix is derived from the registry, like the CI chaos matrix: every
engine detached and under each single plane it supports, both transfer
benches, and one CLI figure.  After each run and ``del result``, a full
collection under ``gc.DEBUG_SAVEALL`` must find no object of this
package, and no simulator the run built may still be alive.
``REPRO_TEST_SEED`` (default 7) seeds the workloads and the
fault plans, so the crash instants — and the processes a run leaves
parked — differ from seed to seed.
"""

from __future__ import annotations

import collections
import dataclasses
import gc
import os
import weakref

import pytest

from repro.core.system import (
    CAP_SANITIZE,
    CAP_TRANSFER_BENCH,
    RECOVERY_STRATEGIES,
)
from repro.faults.injector import DATA_PLANE_KINDS
from repro.faults.plan import PRESETS, FaultPlan
from repro.harness import cli
from repro.runtime import REGISTRY
from repro.runtime.scenario import Scenario, make_workload, run_scenario
from repro.simnet.kernel import Simulator

SEED = int(os.environ.get("REPRO_TEST_SEED", "7"))
NODES, THREADS, RECORDS = 3, 2, 300


def _base(engine: str) -> Scenario:
    nodes = NODES if "scale_out" in REGISTRY.spec(engine).capabilities else 1
    return Scenario(engine, "ysb", nodes, THREADS,
                    {"records_per_thread": RECORDS}, seed=SEED)


def _preset_kinds(preset: str, nodes: int) -> frozenset:
    plan = FaultPlan.preset(preset, SEED, nodes, 1.0)
    return frozenset(event.kind.value for event in plan)


def _plane_cells(engine: str) -> list[tuple[str, dict]]:
    """``(label, Scenario fields)`` of each single plane ``engine`` supports."""
    spec = REGISTRY.spec(engine).engine
    cells: list[tuple[str, dict]] = [("detached", {})]
    if CAP_SANITIZE in spec.capabilities:
        cells.append(("sanitizer", {"sanitize": True}))
    if spec.supported_fault_kinds:
        data_plane = {kind.value for kind in DATA_PLANE_KINDS}
        preset = next(
            preset for preset in PRESETS
            if _preset_kinds(preset, NODES) <= data_plane & spec.supported_fault_kinds
        )
        # One data-plane preset (RTO races), and the crash preset under
        # every recovery strategy the engine drives.
        cells.append((f"faults:{preset}", {"fault": preset}))
        for strategy in RECOVERY_STRATEGIES:
            if strategy in spec.supported_recovery_strategies:
                cells.append((f"faults:leader-crash:{strategy}",
                               {"fault": "leader-crash", "strategy": strategy}))
    for migration in sorted(spec.supported_migration_strategies):
        cells.append((f"elastic:{migration}", {"elastic": migration}))
    for policy in sorted(spec.supported_shed_policies)[:1]:
        cells.append((f"overload:{policy}", {"shed": policy}))
    return cells


def _scenario(engine: str, plane: dict) -> Scenario:
    base = _base(engine)
    if not plane:
        return base
    if plane.get("sanitize"):
        return dataclasses.replace(base, sanitize=True)
    # The planes are placed on the detached run's horizon.
    horizon = run_scenario(base).sim_seconds
    if "fault" in plane:
        plan = FaultPlan.preset(plane["fault"], SEED, base.nodes, horizon)
        tunables = {
            "detect_s": horizon * 0.02,
            "watchdog_period_s": horizon * 0.01,
            "rto_s": max(5e-6, horizon * 0.001),
            "credit_timeout_s": max(2e-5, horizon * 0.005),
            "snapshot_interval_s": horizon * 0.04,
        }
        return dataclasses.replace(
            base, fault_plan=plan, fault_overrides=tunables,
            recovery_strategy=plane.get("strategy"),
        )
    if "elastic" in plane:
        return dataclasses.replace(
            base, rescale_at=horizon * 0.35, migration_strategy=plane["elastic"],
            rescale_overrides={"action": "join", "add_nodes": 1},
        )
    return dataclasses.replace(
        base, slo_p99_ms=horizon * 1e3 * 0.05, shed_policy=plane["shed"],
        overload_overrides={
            "ingest_rate_records_per_s": 2.0 * RECORDS / horizon,
            "flash_at_frac": 0.5, "flash_magnitude": 3.0,
        },
    )


CELLS = [
    pytest.param(engine, plane, id=f"{engine}-{label}")
    for engine in REGISTRY.names()
    for label, plane in _plane_cells(engine)
]
TRANSFER_BENCHES = [
    name for name in REGISTRY.names()
    if CAP_TRANSFER_BENCH in REGISTRY.spec(name).capabilities
]


def _package_garbage() -> collections.Counter:
    """Types of this package's objects a full collection finds unreachable."""
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return collections.Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro")
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.fixture
def assert_frees(monkeypatch):
    """Run a callable with the collector off, drop its result, then check
    that every simulator it built is gone and that a full collection finds
    none of this package's objects.

    Both checks are needed: a cycle through a suspended generator is
    broken by the generator's finalizer during the collection, so the
    collector frees it without ever listing it in ``gc.garbage`` — but
    the simulator every rack object reaches stays alive until then.  An
    automatic collection during the run would hide either kind.
    """
    built = []
    init = Simulator.__init__

    def tracked_init(self):
        init(self)
        built.append(weakref.ref(self))

    monkeypatch.setattr(Simulator, "__init__", tracked_init)

    def check(run) -> None:
        gc.collect()  # what earlier tests left behind is not this run's
        built.clear()
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = run()
            del result
            alive = sum(ref() is not None for ref in built)
            garbage = _package_garbage()
        finally:
            if enabled:
                gc.enable()
        assert built
        assert alive == 0, f"{alive} of {len(built)} simulators outlived their run"
        assert garbage == collections.Counter()

    return check


@pytest.mark.parametrize("engine,plane", CELLS)
def test_run_scenario_frees_its_rack(assert_frees, engine, plane):
    spec = _scenario(engine, plane)
    if engine == "reference":
        # The sequential oracle simulates nothing: only the cycle check.
        gc.collect()
        result = run_scenario(spec)
        del result
        assert _package_garbage() == collections.Counter()
        return
    assert_frees(lambda: run_scenario(spec))


@pytest.mark.parametrize("name", TRANSFER_BENCHES)
def test_transfer_bench_frees_its_rack(assert_frees, name):
    workload = make_workload("ro", records_per_thread=2000, seed=SEED)
    bench = REGISTRY.transfer_bench(name, threads=2, buffer_bytes=4096)
    assert_frees(lambda: bench.run(workload))


def test_cli_figure_frees_its_racks(assert_frees, capsys):
    codes = []
    assert_frees(lambda: codes.append(
        cli.main(["run", "fig6a", "--quick", "--records", "120", "--nodes", "2"])
    ))
    assert codes == [0]
    assert capsys.readouterr().out


@pytest.mark.parametrize("plane", [{}, {"fault": "nic-flap"}], ids=["detached", "nic-flap"])
@pytest.mark.parametrize("engine", ["uppar", "flink"])
def test_a_held_partitioned_engine_keeps_no_run(assert_frees, monkeypatch, engine, plane):
    """A partitioned engine keeps its run's transport (queue pairs or the
    IPoIB fabric, which a NIC flap also throttles) on the run context, so
    an engine that outlives its run keeps none of its rack."""
    spec = _scenario(engine, plane)
    held = []
    create = REGISTRY.create

    def keep(*args, **kwargs):
        held.append(create(*args, **kwargs))
        return held[-1]

    monkeypatch.setattr(REGISTRY, "create", keep)
    assert_frees(lambda: run_scenario(spec))
    assert len(held) == 1
