"""One workload in one fresh interpreter; ``run.py`` starts one per workload.

The order of work is the order a user pays for it: import the package,
build the inputs from the seed (together: ``setup_s``), then run passes of
the body — an optional warm-up, the timed repeats with tracing off, and
only then the traced passes.  The first pass is the one whose outputs are
checked.  The record goes to ``--result`` as JSON when the run ends.
"""

import time

_STARTED = time.perf_counter()

import argparse
import gc
import json
import pathlib
import resource
import sys
import traceback

LEDGER = pathlib.Path(__file__).resolve().parent
SRC = LEDGER.parents[1] / "src"

#: The sampling pass repeats a short body until it has sampled this long: a
#: layer's share of a 2 s body moves by 5 points with the machine's speed.
SAMPLE_SECONDS = 5.0


def run_body(cells, mode: str, spans=None) -> tuple[dict, list]:
    """One pass over the cells; returns its record and the raw results."""
    gc.collect()
    results, rows = [], []
    wall, cpu = time.perf_counter(), time.process_time()
    for cell in cells:
        if spans is not None:
            spans.cell = cell.name
        started = time.perf_counter()
        try:
            result, error = cell.run(), None
        except Exception:  # the boundary: a failed operation is a result
            result, error = None, traceback.format_exc(limit=8)
        rows.append({
            "cell": cell.name,
            "wall_s": time.perf_counter() - started,
            "error": error,
            "sim_seconds": getattr(result, "sim_seconds", None),
        })
        results.append(result)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    record = {"mode": mode, "wall_s": wall, "cpu_s": cpu,
              "stolen_share": 1.0 - cpu / wall, "flagged": False, "cells": rows}
    return record, results


def judge(cells, results: list) -> tuple[list, dict]:
    """Check one pass's outputs: a digest and a verdict per operation."""
    ops, facts = [], {}
    for cell, result in zip(cells, results):
        if result is None:  # it raised; ``settle`` carries the traceback
            ops += [{"op": name, "digest": None, "error": None}
                    for name in cell.op_names()]
            continue
        ops += cell.judge(result)
        facts[cell.name] = {"records": cell.records, **cell.facts(result)}
    return ops, facts


def settle(cells, passes: list, ops: list, pins, every_pin: bool, seedless) -> None:
    """Fail the operations that raised, wavered, or left their pin.

    An operation raised if its cell did in any pass; it wavered if its
    cell's ``sim_seconds`` differs between passes of one process.  ``pins``
    is the workload's table from ``pins.json`` (``None``: not enforced);
    away from the default seed only the ``seedless`` operations are held to it.
    """
    for cell in cells:
        rows = [row for pass_ in passes for row in pass_["cells"]
                if row["cell"] == cell.name]
        error = next((row["error"] for row in rows if row["error"]), None)
        if error is None and len({row["sim_seconds"] for row in rows}) > 1:
            error = "sim_seconds differs between passes: not deterministic"
        for op in ops:
            if op["error"] is not None or op["op"] not in cell.op_names():
                continue
            if error is not None:
                op["error"] = error
            elif (pins is not None and (every_pin or op["op"] in seedless)
                    and pins.get(op["op"]) != op["digest"]):
                op["error"] = f"digest {op['digest'][:12]} differs from pins.json"


def boundary_spans():
    """Spans around the calls into each layer's public methods."""
    from repro.harness import cli
    from repro.runtime import REGISTRY
    from repro.simnet.kernel import Simulator
    from repro.workloads.base import Workload
    from tracing import Spans

    def processed(_args, result):
        return {"records": getattr(result, "input_records", None)
                or getattr(result, "records", 0)}

    spans = Spans()
    spans.wrap(Workload, "flows", "workloads.flows")
    for name in REGISTRY.names():
        engine = type(REGISTRY.create(name, 2))
        if name == "reference":
            spans.wrap(engine, "run", "baselines.reference")
        else:
            spans.wrap(engine, "run", "core.engine_run", processed)
        if REGISTRY.spec(name).transfer_factory is not None:
            bench = type(REGISTRY.transfer_bench(name))
            spans.wrap(bench, "run", "core.engine_run", processed)
    # RunResult exposes the kernel's event counts only on fault runs.
    spans.wrap(Simulator, "run", "simnet.kernel.run", lambda args, _result: {
        "sim_events": args[0].scheduled_events,
        "cancelled_events": args[0].cancelled_events,
    })
    spans.wrap(cli, "main", "harness.cli")
    return spans


def entry_points() -> dict:
    """Functions callers import by name; timed by the cProfile pass."""
    from repro.core.pipeline import compile_query
    from repro.grid import run_cell, run_grid
    from repro.metrics.reporting import Report
    from repro.runtime import diff_results

    return {"core.compile_s": compile_query, "runtime.oracle_diff_s": diff_results,
            "grid.run_grid_s": run_grid, "metrics.render_s": Report.render,
            "grid.cells": run_cell}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--result", type=pathlib.Path, required=True)
    parser.add_argument("--pins", type=pathlib.Path, default=None,
                        help="pins.json to hold the digests to (default: none)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--warmup", action="store_true")
    parser.add_argument("--repeats", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--sample", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"ledger: {SRC}/repro not found; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import repro.harness.cli  # noqa: F401  (the import a CLI user pays)

    imported = time.perf_counter()
    from metrics import DEFAULT_SEED, timed_repeats
    from workloads import BUILDERS, SEEDLESS_OPS

    out = args.result.with_suffix(".out")
    cells = BUILDERS[args.workload](args.seed, args.scale, out)
    built = time.perf_counter()
    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "setup_s": built - _STARTED, "import_s": imported - _STARTED,
        "build_s": built - imported,
        "records": sum(cell.records for cell in cells),
        "planes": {cell.name: cell.plane for cell in cells},
        "passes": [],
    }
    if args.setup_only:
        args.result.write_text(json.dumps(record))
        return 0

    passes = record["passes"]

    def one_pass(mode: str, spans=None) -> dict:
        pass_, results = run_body(cells, mode, spans)
        if not passes:
            record["ops"], record["facts"] = judge(cells, results)
        passes.append(pass_)
        return pass_

    if args.warmup:
        one_pass("warmup")
        timed_repeats(lambda: one_pass("plain"), args.repeats, args.seconds)
    else:
        # A cold run leaves re-runs to the parent: each gets its own interpreter.
        for _ in range(args.repeats):
            one_pass("plain")
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.sample or args.profile:
        from tracing import Sampler, profile_calls

        spans = boundary_spans()
        try:
            if args.sample:
                spans.phase = "sample"
                sampled = 0.0
                with Sampler() as sampler:
                    while sampled < SAMPLE_SECONDS / args.scale:
                        sampled += one_pass("sample", spans)["wall_s"]
                record["sampler"] = {"self_s": dict(sampler.self_s),
                                     "samples": sampler.samples}
            if args.profile:
                spans.phase = "profile"
                _pass, calls, entries = profile_calls(
                    lambda: one_pass("profile", spans), entry_points()
                )
                record["profile"] = {"calls": calls, "entries": entries}
        finally:
            spans.restore()
        record["spans"] = spans.spans

    pins = None
    if args.pins is not None and args.scale == 1:
        pins = json.loads(args.pins.read_text()).get(args.workload, {})
    settle(cells, passes, record["ops"], pins, args.seed == DEFAULT_SEED, SEEDLESS_OPS)
    record["reference_s"] = sum(
        inputs.reference_s for inputs in {c.inputs for c in cells if c.inputs})
    record["oracle_diff_s"] = sum(cell.oracle_diff_s for cell in cells)
    args.result.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
