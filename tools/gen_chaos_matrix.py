#!/usr/bin/env python
"""Generate the CI chaos matrix from the engine registry.

The matrix is *derived*, not hand-written: every engine with a fault
plane is crossed with every fault preset whose kinds it can absorb
(``supported_fault_kinds``) and, for presets that need a recovery plane,
with every strategy it can drive (``supported_recovery_strategies``).  Adding a preset, an engine, or a
strategy therefore grows the CI matrix automatically — a hand-listed
matrix silently stops covering what the registry can do.

Cell shape (one JSON object per matrix include entry)::

    {"system": "uppar", "fault": "leader-crash", "strategy": "async-snapshot",
     "elastic": ""}

``strategy`` is ``""`` when the cell needs no recovery plane (the CI
job omits ``--strategy``).  Data-plane presets
(:data:`repro.faults.injector.DATA_PLANE_KINDS`) run once under the
engine's default strategy — the first one it supports — instead of once
per strategy: the recovery plane is idle, so extra strategies would
re-run the same simulation.

Engines with an elastic plane (``supported_migration_strategies``)
additionally get **migration cells**: the ``leader-crash`` preset crossed with every migration
strategy they support (``elastic`` holds the strategy name, passed to
``--elastic``).  These are the migration × leader-crash differential
cells — a mover crash mid-rescale must fence-rollback or complete,
never leave partial ownership, and the run must still match the
fail-free baseline.  Each migration cell is first *probed*: the preset's
plan and a join-rescale are attached to a fresh engine at probe scale
(no simulation runs), and a combination the engine refuses — UpPar
rejects a live rescale under crash recovery by design — is not emitted.

Usage::

    PYTHONPATH=src python tools/gen_chaos_matrix.py          # compact JSON
    PYTHONPATH=src python tools/gen_chaos_matrix.py --pretty # human listing
"""

from __future__ import annotations

import argparse
import json
import sys

#: Plan-builder parameters used only to *discover* each preset's kinds;
#: the CI cells run with the CLI defaults, not these.
PROBE_SEED = 7
PROBE_EXECUTORS = 3
PROBE_HORIZON_S = 1.0


def preset_kinds() -> dict[str, frozenset]:
    """Map each named preset to the fault kinds its plan schedules."""
    from repro.faults.plan import FaultPlan, PRESETS

    kinds = {}
    for preset in PRESETS:
        plan = FaultPlan.preset(preset, PROBE_SEED, PROBE_EXECUTORS, PROBE_HORIZON_S)
        kinds[preset] = frozenset(event.kind.value for event in plan)
    return kinds


def attaches(cell: dict) -> bool:
    """Whether a fresh engine accepts the cell's attachments (no simulation)."""
    from repro.common.errors import ConfigError
    from repro.elastic.plan import ElasticPlan
    from repro.faults.plan import FaultPlan
    from repro.runtime import REGISTRY

    engine = REGISTRY.create(cell["system"], PROBE_EXECUTORS)
    plan = FaultPlan.preset(
        cell["fault"], PROBE_SEED, PROBE_EXECUTORS, PROBE_HORIZON_S
    )
    try:
        engine.attach_faults(plan, strategy=cell["strategy"] or None)
        if cell["elastic"]:
            engine.attach_elastic(ElasticPlan(
                rescale_at=PROBE_HORIZON_S * 0.3, strategy=cell["elastic"],
                action="join", add_nodes=1,
            ))
    except ConfigError:
        return False
    return True


#: The preset crossed with migration strategies for elastic engines:
#: a leader crash is the fault a live handoff must survive (fenced
#: rollback or completion, never partial ownership).
MIGRATION_PRESET = "leader-crash"


def build_matrix() -> list[dict]:
    from repro.faults.injector import DATA_PLANE_KINDS
    from repro.runtime import MIGRATION_STRATEGIES, RECOVERY_STRATEGIES, REGISTRY

    data_plane = {kind.value for kind in DATA_PLANE_KINDS}
    kinds_by_preset = preset_kinds()
    cells: list[dict] = []
    for system in REGISTRY.names():
        engine = REGISTRY.create(system, PROBE_EXECUTORS)
        if not engine.supported_fault_kinds:
            continue
        strategies = [
            s for s in RECOVERY_STRATEGIES
            if s in engine.supported_recovery_strategies
        ]
        default = strategies[0] if strategies else ""
        for preset, kinds in kinds_by_preset.items():
            if not kinds <= engine.supported_fault_kinds:
                continue
            if kinds <= data_plane:
                cells.append({
                    "system": system,
                    "fault": preset,
                    "strategy": default,
                    "elastic": "",
                })
            else:
                for strategy in strategies:
                    cells.append({
                        "system": system,
                        "fault": preset,
                        "strategy": strategy,
                        "elastic": "",
                    })
            if preset == MIGRATION_PRESET:
                for migration in MIGRATION_STRATEGIES:
                    if migration not in engine.supported_migration_strategies:
                        continue
                    cell = {
                        "system": system,
                        "fault": preset,
                        "strategy": default,
                        "elastic": migration,
                    }
                    if attaches(cell):
                        cells.append(cell)
    return cells


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pretty", action="store_true",
                        help="one human-readable line per cell")
    args = parser.parse_args(argv)
    cells = build_matrix()
    if args.pretty:
        for cell in cells:
            strategy = cell["strategy"] or "-"
            elastic = f" +{cell['elastic']} rescale" if cell["elastic"] else ""
            print(f"{cell['system']:<12} {cell['fault']:<20} {strategy}{elastic}")
        print(f"[{len(cells)} cells]", file=sys.stderr)
    else:
        print(json.dumps(cells, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
