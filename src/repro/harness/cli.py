"""Command-line interface to the experiment harness.

Usage (after ``python setup.py develop``)::

    python -m repro list
    python -m repro run fig6a --nodes 2 4 --threads 4 --records 1500
    python -m repro run fig8d --out results/
    python -m repro run all --quick
    python -m repro grid --list
    python -m repro grid traffic-slo --axis zipf=0.8,1.6 --set seed=3 -j 4
    python -m repro chaos --seed 7 --fault leader-crash
    python -m repro elastic --strategy both --action join
    python -m repro overload --rate-factor 2 --policy all

Every paper figure is a registered grid (:mod:`repro.grid.figures`)
whose own axes and knobs are the figure's paper size, and ``run`` is a
view over that registry: it maps the size flags it was given onto the
figure's axis/knob overrides (:data:`RUN_FLAGS`) and then takes the same
``resolve_grid -> run_grid -> emit`` path as ``grid``.  It prints the
rendered report and optionally writes it (plus a machine-readable JSON
of the raw rows) into an output directory.  A figure run with no size
flag (``grid``: no ``--axis`` / ``--set``) is the paper's figure, so its
claims are checked: the claim table follows the report, and a computed
verdict that is not the documented one makes the command exit 1 with a
``CLAIMS FAILED`` line.  ``chaos`` injects a
seeded fault plan into a run and verifies the recovery invariants (see
``docs/fault_tolerance.md``); it exits non-zero if any window result is
lost or two same-seed runs diverge.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from repro.common.suggest import did_you_mean, unknown_name_message
from repro.grid import GRID_ALIASES as ALIASES
from repro.grid import (
    GRIDS,
    PoolRunner,
    check_claims,
    make_pool,
    resolve_grid,
    run_grid,
)
from repro.harness.suites import run_chaos, run_elastic, run_overload

#: Which of ``run``'s size flags each paper figure listens to, as
#: ``(--nodes, --threads, --records)``; ``None`` means the figure ignores
#: the flag.  A flag that is not given overrides nothing: the figure's
#: size is its grid's own declaration (``grid --list``).
#:
#: * ``--nodes``: ``"axis"`` sweeps them as the ``nodes`` axis; ``"L+axis"``
#:   prepends fig7's scale-up baseline point (LightSaber, one node).
#: * ``--threads``: ``"exact"`` sets the ``threads`` knob; ``"cap10"`` sets
#:   at most 10.
#: * ``--records``: ``"knob"`` sets ``records_per_thread``; ``"sized"``
#:   sets the ``workload_overrides`` dict the Fig. 6/7 cells hand the
#:   generator (records per thread, and a fifth of that per batch).
RUN_FLAGS: dict[str, tuple] = {
    "fig6a-c":       ("axis",   "exact", "sized"),
    "fig6d-e":       ("axis",   "exact", "sized"),
    "fig7":          ("L+axis", "exact", "sized"),
    "fig8ab":        (None,     "cap10", "knob"),
    "fig8c":         (None,     None,    "knob"),
    "fig8d":         (None,     "cap10", "knob"),
    "fig9":          (None,     None,    "knob"),
    "fig10":         (None,     "cap10", "knob"),
    "table1":        (None,     "cap10", "knob"),
    "abl-credits":   (None,     None,    "knob"),
    "abl-epoch":     (None,     None,    None),
    "abl-exec":      (None,     None,    None),
    "extra-latency": (None,     "cap10", "knob"),
    "abl-signal":    (None,     None,    "knob"),
}

#: The ``run``/``list`` view of the grid registry: the 14 paper figures,
#: id -> description.  (Per-panel ids such as ``fig6a`` are the grids' own
#: aliases, aggregated in ``repro.grid.registry.GRID_ALIASES``.)
EXPERIMENTS: dict[str, str] = {
    name: GRIDS[name].description for name in RUN_FLAGS
}

#: What ``--quick`` fills in for each size flag the user left unset.
QUICK = {"nodes": (2, 4), "threads": 4, "records": 1200}


def run_overrides(name: str, args) -> tuple[dict, dict]:
    """The size flags ``run`` was given, as ``(axis_overrides,
    fixed_overrides)`` of the figure grid ``name``, per its
    :data:`RUN_FLAGS` row."""
    nodes, threads, records = RUN_FLAGS[name]
    axes: dict = {}
    fixed: dict = {}
    if nodes is not None and args.nodes is not None:
        prefix = ("L",) if nodes == "L+axis" else ()
        axes["nodes"] = prefix + tuple(args.nodes)
    if threads is not None and args.threads is not None:
        fixed["threads"] = (
            min(args.threads, 10) if threads == "cap10" else args.threads
        )
    if records == "knob" and args.records:
        fixed["records_per_thread"] = args.records
    elif records == "sized" and args.records:
        fixed["workload_overrides"] = {
            "records_per_thread": args.records,
            "batch_records": max(64, args.records // 5),
        }
    return axes, fixed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the tables and figures of 'Rethinking "
        "Stateful Stream Processing with RDMA' (SIGMOD 2022).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run.add_argument("--nodes", type=int, nargs="+", default=None,
                     help="node counts for weak-scaling experiments "
                          "(default: the figure's own; 2 4 under --quick)")
    run.add_argument("--threads", type=int, default=None,
                     help="worker threads per node (default: the figure's "
                          "own; 4 under --quick)")
    run.add_argument("--records", type=int, default=None,
                     help="records per thread (default: the figure's own; "
                          "1200 under --quick)")
    run.add_argument("--quick", action="store_true",
                     help="small sizes for a fast smoke run")
    run.add_argument("-j", "--jobs", type=int, default=1,
                     help="fan independent sweep cells over N worker "
                          "processes (output stays byte-identical to -j 1)")
    run.add_argument("--out", type=pathlib.Path, default=None,
                     help="directory to write <id>.txt and <id>.json into")

    grid = sub.add_parser(
        "grid",
        help="run a declarative sweep grid by name (axes x cell template; "
             "see 'grid --list')",
    )
    grid.add_argument("name", nargs="?", default=None,
                      help="grid name or panel alias from 'grid --list'")
    grid.add_argument("--list", action="store_true", dest="list_grids",
                      help="list registered grids with their axes")
    grid.add_argument("--axis", action="append", default=[],
                      metavar="NAME=V1,V2,...",
                      help="override one axis's swept values (repeatable); "
                           "engine axes keep their capability gate")
    grid.add_argument("--set", action="append", default=[], dest="set_knobs",
                      metavar="NAME=VALUE",
                      help="override one fixed knob (repeatable)")
    grid.add_argument("--dry-run", action="store_true",
                      help="expand the grid and print its cells without "
                           "running any simulation")
    grid.add_argument("-j", "--jobs", type=int, default=1,
                      help="fan grid cells over N worker processes "
                           "(output stays byte-identical to -j 1)")
    grid.add_argument("--out", type=pathlib.Path, default=None,
                      help="directory to write <name>.txt and <name>.json into")

    from repro.faults.plan import PRESETS

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection run: inject a fault preset, verify recovery",
    )
    chaos.add_argument("--fault", default="leader-crash", metavar="PRESET",
                       help="named fault preset to inject (one of: "
                            + ", ".join(PRESETS) + ")")
    chaos.add_argument("--system", default="slash",
                       help="fault-injectable engine to run under chaos "
                            "(registry name; default: slash)")
    from repro.core.system import RECOVERY_STRATEGIES

    chaos.add_argument("--strategy", default="both", metavar="STRATEGY",
                       help="recovery strategy for control-plane faults "
                            "(one of: " + ", ".join(RECOVERY_STRATEGIES)
                            + "; default: 'both' runs every strategy the "
                              "engine supports and compares them)")
    chaos.add_argument("--seed", type=int, default=7,
                       help="seed deriving fault time and victim")
    chaos.add_argument("--nodes", type=int, default=3,
                       help="cluster size")
    chaos.add_argument("--threads", type=int, default=2,
                       help="worker threads per node")
    chaos.add_argument("--records", type=int, default=1500,
                       help="records per thread")
    chaos.add_argument("--workload", default="ysb",
                       help="workload to run under fault injection")
    chaos.add_argument("--no-determinism-check", action="store_true",
                       help="skip the second same-seed faulted run")
    from repro.core.system import MIGRATION_STRATEGIES

    chaos.add_argument("--elastic", default=None, metavar="STRATEGY",
                       choices=sorted(MIGRATION_STRATEGIES),
                       help="additionally perform a live join-rescale with "
                            "this migration strategy (one of: "
                            + ", ".join(sorted(MIGRATION_STRATEGIES))
                            + ") during every faulted run")
    chaos.add_argument("--out", type=pathlib.Path, default=None,
                       help="directory to write chaos.txt and chaos.json into")

    elastic = sub.add_parser(
        "elastic",
        help="live-rescale run: migrate partitions mid-run under both "
             "strategies, diff against the static baseline, report the "
             "migration-window latency spike",
    )
    elastic.add_argument("--system", default="slash",
                         help="elastic-capable engine (registry name; "
                              "default: slash)")
    elastic.add_argument("--strategy", default="both", metavar="STRATEGY",
                         help="migration strategy (one of: "
                              + ", ".join(sorted(MIGRATION_STRATEGIES))
                              + "; default: 'both' runs and compares them)")
    elastic.add_argument("--action", default="join",
                         choices=("join", "leave", "rebalance"),
                         help="rescale action (default: join)")
    elastic.add_argument("--nodes", type=int, default=2,
                         help="cluster size before the rescale")
    elastic.add_argument("--threads", type=int, default=4,
                         help="worker threads per node")
    elastic.add_argument("--records", type=int, default=20_000,
                         help="records per thread (state must dwarf the "
                              "fixed per-move latency floor)")
    elastic.add_argument("--workload", default="ysb",
                         help="workload to rescale under")
    elastic.add_argument("--seed", type=int, default=11,
                         help="workload generator seed")
    elastic.add_argument("--rescale-frac", type=float, default=0.35,
                         help="when to rescale, as a fraction of the "
                              "static run's horizon")
    elastic.add_argument("--ranges", type=int, default=None,
                         help="fluid key-range sub-moves (ElasticPlan "
                              "default when omitted)")
    elastic.add_argument("--spread", type=float, default=None,
                         help="fluid catch-up gap between sub-moves, as a "
                              "multiple of each round's stall")
    elastic.add_argument("--add-nodes", type=int, default=1,
                         help="spare nodes a join brings up")
    elastic.add_argument("--drain-node", type=int, default=None,
                         help="node a leave drains (default: last node)")
    elastic.add_argument("--quick", action="store_true",
                         help="small sizes for a fast smoke run")
    elastic.add_argument("--out", type=pathlib.Path, default=None,
                         help="directory to write elastic.txt and "
                              "elastic.json into")

    from repro.core.system import SHED_POLICIES

    overload = sub.add_parser(
        "overload",
        help="flash-crowd run: pace ingest past the sustainable rate, "
             "shed to the declared p99 SLO under every policy, verify "
             "exact shed accounting against the reference oracle, and "
             "measure straggler mitigation under a gray fault",
    )
    overload.add_argument("--system", default="slash",
                          help="overload-capable engine (registry name; "
                               "default: slash)")
    overload.add_argument("--workload", default="ysb",
                          help="workload to overload")
    overload.add_argument("--nodes", type=int, default=3,
                          help="cluster size (>= 3 gives the straggler "
                               "detector a median to drift from)")
    overload.add_argument("--threads", type=int, default=2,
                          help="worker threads per node")
    overload.add_argument("--records", type=int, default=4000,
                          help="records per thread")
    overload.add_argument("--seed", type=int, default=11,
                          help="workload generator + shedder seed")
    overload.add_argument("--slo-ms", type=float, default=None,
                          help="declared p99 SLO in simulated ms "
                               "(default: half the no-shed p99)")
    overload.add_argument("--rate-factor", type=float, default=2.0,
                          help="offered rate as a multiple of the "
                               "measured sustainable rate")
    overload.add_argument("--policy", default="all",
                          help="shedding policy (one of: "
                               + ", ".join(SHED_POLICIES)
                               + "; 'all' compares every policy, 'none' "
                                 "skips shedding runs)")
    overload.add_argument("--tenants", type=int, default=4,
                          help="tenants for the per-tenant fairness table")
    overload.add_argument("--zipf", type=float, default=0.0,
                          help="Zipf skew for the workload's keys "
                               "(hot-key flash crowds; 0 = uniform)")
    overload.add_argument("--fault", default="slow-node",
                          choices=("slow-node", "jitter", "none"),
                          help="gray fault for the straggler-mitigation "
                               "section ('none' skips it)")
    overload.add_argument("--quick", action="store_true",
                          help="small sizes for a fast smoke run")
    overload.add_argument("--out", type=pathlib.Path, default=None,
                          help="directory to write overload.txt and "
                               "overload.json into")

    sanitize = sub.add_parser(
        "sanitize",
        help="differential oracle harness: random scenarios with runtime "
             "invariant checkers on, compared against the sequential "
             "reference and the partitioned baseline",
    )
    sanitize.add_argument("--scenarios", type=int, default=25,
                          help="number of random scenarios to generate")
    sanitize.add_argument("--seed", type=int, default=1,
                          help="seed deriving every scenario")
    sanitize.add_argument("--replay", default=None,
                          help="re-check one exact case instead of drawing: "
                               "a runtime Scenario as one JSON line "
                               "(Scenario.to_json(), as printed by a "
                               "failure's repro command and carried by "
                               "report rows), fully materialised")
    sanitize.add_argument("--no-shrink", action="store_true",
                          help="skip minimizing failing scenarios")
    sanitize.add_argument("--out", type=pathlib.Path, default=None,
                          help="directory to write sanitize.txt and "
                               "sanitize.json into")
    return parser


def _emit(stem: str, report, label: str, elapsed: float,
          out: Optional[pathlib.Path], claims: str = "") -> None:
    """Print one report with its wall-clock footer; with ``out``, also
    write ``<stem>.txt`` and the raw rows as ``<stem>.json``.  A figure's
    ``claims`` table, when it was checked, follows the report in both."""
    text = report.render() + (f"\n\n{claims}" if claims else "")
    print(text)
    print(f"\n[{label} — {elapsed:.1f}s wall]")
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{stem}.txt").write_text(text + "\n")
        (out / f"{stem}.json").write_text(
            json.dumps(_jsonable(report.rows), indent=2) + "\n"
        )


def _jsonable(rows: list) -> list:
    def convert(value):
        if isinstance(value, dict):
            return {str(k): convert(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [convert(v) for v in value]
        if isinstance(value, float) and value in (float("inf"), float("-inf")):
            return str(value)
        if isinstance(value, (int, float, str, bool)) or value is None:
            return value
        return str(value)

    return [convert(row) for row in rows]


def run_requests(requests: list, jobs: int = 1):
    """Run ``(grid, axis_overrides, fixed_overrides)`` requests; yield
    ``(grid, report, elapsed)`` in request order.

    With ``jobs > 1`` the cells fan out over one shared process pool.
    Each request gets its own driver thread so cells from different grids
    interleave in the pool; results are still yielded in request order,
    so what a consumer prints is byte-identical to a serial run.
    """
    def timed(grid, axes, fixed, runner=None):
        started = time.time()
        report = run_grid(grid, axes, fixed, runner=runner)
        return grid, report, time.time() - started

    if jobs == 1:
        for request in requests:
            yield timed(*request)
        return
    with make_pool(jobs) as pool, \
            ThreadPoolExecutor(max_workers=len(requests)) as drivers:
        runner = PoolRunner(pool, jobs)
        futures = [
            drivers.submit(timed, *request, runner) for request in requests
        ]
        for future in futures:
            yield future.result()


def _run_grids(requests: list, paper_size: bool, jobs: int,
               out: Optional[pathlib.Path]) -> int:
    """Run the requests and emit each report — the one path behind ``run``
    and ``grid``.  ``paper_size`` says no override of any kind was asked
    for: only then is a figure's run the paper's figure, are its claims
    checked, and can an unexpected verdict fail the command."""
    failed = []
    for grid, report, elapsed in run_requests(requests, jobs):
        claims = ""
        if paper_size and grid.claims:
            claims, unexpected = check_claims(grid, report.rows)
            failed.extend(unexpected)
        _emit(grid.name, report, f"{grid.name}: {grid.description}", elapsed,
              out, claims)
    return claims_exit_code(failed)


def claims_exit_code(unexpected: list) -> int:
    """Name every claim whose verdict was not the documented one on
    stderr; the exit code of a claim-checking command."""
    for line in unexpected:
        print(f"CLAIMS FAILED: {line}", file=sys.stderr)
    return 1 if unexpected else 0


def _run_figures(args) -> int:
    paper_size = not (
        args.quick or args.records
        or args.nodes is not None or args.threads is not None
    )
    if args.quick:
        if args.nodes is None:
            args.nodes = QUICK["nodes"]
        if args.threads is None:
            args.threads = QUICK["threads"]
        args.records = args.records or QUICK["records"]
    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    targets = [ALIASES.get(t, t) for t in targets]
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        known = list(EXPERIMENTS) + list(ALIASES)
        hints = []
        for miss in unknown:
            close = did_you_mean(miss, known)
            if close:
                hints.append(f"did you mean {ALIASES.get(close, close)!r}?")
        hint = (" " + " ".join(hints)) if hints else ""
        print(
            f"unknown experiment(s): {unknown}; see 'repro list'.{hint}",
            file=sys.stderr,
        )
        return 2
    requests = [
        (resolve_grid(name), *run_overrides(name, args)) for name in targets
    ]
    return _run_grids(requests, paper_size, max(1, args.jobs), args.out)


def _list_grids() -> int:
    width = max(len(name) for name in GRIDS)
    for name, grid in GRIDS.items():
        axes = ", ".join(grid.axis_names())
        alias = f" (aliases: {', '.join(grid.aliases)})" if grid.aliases else ""
        print(f"{name:<{width}}  {grid.description} [axes: {axes}]{alias}")
    return 0


def _run_grid(args) -> int:
    from repro.common.errors import ConfigError
    from repro.grid import expand_grid, parse_axis_spec, parse_set_spec

    if args.list_grids or args.name is None:
        return _list_grids()
    try:
        grid = resolve_grid(args.name)
        axis_overrides = dict(parse_axis_spec(spec) for spec in args.axis)
        fixed_overrides = dict(parse_set_spec(spec) for spec in args.set_knobs)
        if args.dry_run:
            run = expand_grid(grid, axis_overrides, fixed_overrides)
            print(f"grid {grid.name}: {len(run.cells)} cells")
            for name in grid.axis_names():
                values = ", ".join(str(v) for v in run.axis(name))
                print(f"  axis {name}: {values}")
            for point, (kind, _params) in zip(run.points, run.cells):
                label = ", ".join(f"{k}={v}" for k, v in point.items())
                print(f"  [{kind}] {label}")
            return 0
        return _run_grids(
            [(grid, axis_overrides, fixed_overrides)],
            not (axis_overrides or fixed_overrides),
            max(1, args.jobs), args.out,
        )
    except ConfigError as exc:
        # Unknown grid / axis / knob names (each with a did-you-mean
        # suggestion), malformed override specs, empty axes, and engines
        # failing a grid's capability gate all land here.
        print(f"GRID FAILED: {exc}", file=sys.stderr)
        return 2


def _run_chaos(args) -> int:
    from repro.common.errors import ConfigError, FaultError
    from repro.core.system import RECOVERY_STRATEGIES
    from repro.faults.plan import PRESETS

    if args.fault not in PRESETS:
        message = unknown_name_message("fault preset", args.fault, PRESETS)
        print(f"CHAOS FAILED: {message}", file=sys.stderr)
        return 1
    if args.strategy != "both" and args.strategy not in RECOVERY_STRATEGIES:
        message = unknown_name_message(
            "recovery strategy", args.strategy, RECOVERY_STRATEGIES + ("both",)
        )
        print(f"CHAOS FAILED: {message}", file=sys.stderr)
        return 1

    started = time.time()
    try:
        report = run_chaos(
            fault=args.fault,
            seed=args.seed,
            nodes=args.nodes,
            threads=args.threads,
            workload_name=args.workload,
            records_per_thread=args.records,
            verify_determinism=not args.no_determinism_check,
            system=args.system,
            strategy=args.strategy,
            elastic=args.elastic,
        )
    except (ConfigError, FaultError) as exc:
        # ConfigError covers unknown engine names (with a did-you-mean
        # suggestion from the registry) and capability errors — an engine
        # that cannot absorb the requested fault kinds fails here, fast.
        print(f"CHAOS FAILED: {exc}", file=sys.stderr)
        return 1
    _emit("chaos", report, f"chaos {args.fault} seed {args.seed}",
          time.time() - started, args.out)
    return 0


def _run_elastic(args) -> int:
    from repro.common.errors import (
        CapabilityError,
        ConfigError,
        StateError,
    )
    from repro.core.system import MIGRATION_STRATEGIES

    if args.strategy != "both" and args.strategy not in MIGRATION_STRATEGIES:
        message = unknown_name_message(
            "migration strategy", args.strategy,
            tuple(sorted(MIGRATION_STRATEGIES)) + ("both",),
        )
        print(f"ELASTIC FAILED: {message}", file=sys.stderr)
        return 1
    if args.quick:
        args.records = min(args.records, 2500)

    started = time.time()
    try:
        report = run_elastic(
            system=args.system,
            workload_name=args.workload,
            nodes=args.nodes,
            threads=args.threads,
            records_per_thread=args.records,
            seed=args.seed,
            strategy=args.strategy,
            action=args.action,
            rescale_frac=args.rescale_frac,
            add_nodes=args.add_nodes,
            drain_node=args.drain_node,
            fluid_ranges=args.ranges,
            fluid_spread=args.spread,
        )
    except (CapabilityError, ConfigError, StateError) as exc:
        # CapabilityError: a non-elastic engine (with the elastic-capable
        # set in the message); ConfigError: a rescale_at past the horizon
        # or a malformed plan; StateError: the oracle caught a divergence.
        print(f"ELASTIC FAILED: {exc}", file=sys.stderr)
        return 1
    _emit("elastic", report, f"elastic {args.action} seed {args.seed}",
          time.time() - started, args.out)
    return 0


def _run_overload(args) -> int:
    from repro.common.errors import (
        CapabilityError,
        ConfigError,
        StateError,
    )

    if args.quick:
        args.records = min(args.records, 1000)
    started = time.time()
    try:
        report = run_overload(
            system=args.system,
            workload_name=args.workload,
            nodes=args.nodes,
            threads=args.threads,
            records_per_thread=args.records,
            seed=args.seed,
            slo_ms=args.slo_ms,
            rate_factor=args.rate_factor,
            policy=args.policy,
            tenants=args.tenants,
            zipf=args.zipf,
            fault=None if args.fault == "none" else args.fault,
        )
    except (CapabilityError, ConfigError, StateError) as exc:
        # CapabilityError: an engine with no overload plane (with the
        # overload-capable set in the message) or an unsupported policy;
        # ConfigError: a malformed OverloadConfig (with did-you-mean for
        # policy typos); StateError: the acceptance gates failed — the
        # no-shed run met the SLO, a shedding run violated it, or the
        # differential oracle found a silently-lost record.
        print(f"OVERLOAD FAILED: {exc}", file=sys.stderr)
        return 1
    _emit(
        "overload", report,
        f"overload {args.policy} at {args.rate_factor:g}x seed {args.seed}",
        time.time() - started, args.out,
    )
    return 0


def _run_sanitize(args) -> int:
    from repro.common.errors import ConfigError
    from repro.sanitizer.harness import report_failed, run_sanitize

    started = time.time()
    try:
        report = run_sanitize(
            scenarios=args.scenarios,
            seed=args.seed,
            replay=args.replay,
            shrink_failures=not args.no_shrink,
        )
    except ConfigError as exc:
        # A --replay line that is not a scenario: malformed JSON, unknown
        # field / engine / workload / workload option (each with a
        # did-you-mean suggestion), or a fault plan the validators reject.
        print(f"SANITIZE FAILED: {exc}", file=sys.stderr)
        return 2
    print()
    _emit("sanitize", report, f"sanitize seed {args.seed}",
          time.time() - started, args.out)
    if report_failed(report):
        print("SANITIZE FAILED: see repro commands above", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name, description in EXPERIMENTS.items():
            print(f"{name:<{width}}  {description}")
        return 0
    if args.command == "grid":
        return _run_grid(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "elastic":
        return _run_elastic(args)
    if args.command == "overload":
        return _run_overload(args)
    if args.command == "sanitize":
        return _run_sanitize(args)
    return _run_figures(args)


if __name__ == "__main__":
    raise SystemExit(main())
