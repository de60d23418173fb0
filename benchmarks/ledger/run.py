#!/usr/bin/env python3
"""The layered performance ledger: five workloads, host cost and simulated
product, attributed to the layering DAG.

    python benchmarks/ledger/run.py                 # everything, ~4 min
    python benchmarks/ledger/run.py --smoke         # inputs / 10, < 30 s
    python benchmarks/ledger/run.py --workload agg_state --no-trace
    python benchmarks/ledger/run.py --selfcheck     # two sets, own bounds
    python benchmarks/ledger/run.py --repin         # benchmark PRs only

One command runs the workloads one after another (one child interpreter
each; the machine has two cores), prints every metric by name with its
unit, checks every output, and makes a separate traced run that attributes
host time to layers.  Exits non-zero if any operation failed.

The benchmark driver calls it as
``--workload NAME --seed N --seconds S --trace 0|1`` and reads the last
line of stdout: one JSON object (see BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

LEDGER = pathlib.Path(__file__).resolve().parent
SRC = LEDGER.parents[1] / "src"
PINS = LEDGER / "pins.json"

sys.path.insert(0, str(LEDGER))

import compare  # noqa: E402
from metrics import (  # noqa: E402
    BY_NAME, CONTRACT_END_TO_END, CONTRACT_PER_LAYER, DEFAULT_SEED, END_TO_END,
    LAYERS, PER_LAYER, PLANES, WORKLOADS, percentile, summary, tail_quantile,
    timed_repeats,
)


class Runner:
    """Starts child interpreters and keeps their scratch in one place."""

    def __init__(self, seed: int, scale: int, pins: pathlib.Path | None,
                 timeout_s: float = 900.0):
        self.seed, self.scale, self.pins = seed, scale, pins
        #: Longest one child may take before it is killed and the run fails.
        self.timeout_s = timeout_s
        self.work = LEDGER / ".work" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self._count = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run still has scratch there
            self.work.parent.rmdir()

    def child(self, workload: str, *flags: str) -> dict:
        """Run ``child.py`` to completion and return the record it wrote."""
        self._count += 1
        result = self.work / f"{workload}-{self._count}.json"
        command = [sys.executable, str(LEDGER / "child.py"), "--workload", workload,
                   "--seed", str(self.seed), "--scale", str(self.scale),
                   "--result", str(result), *flags]
        if self.pins is not None:
            command += ["--pins", str(self.pins)]
        done = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=self.timeout_s)
        if done.returncode != 0 or not result.is_file():
            raise RuntimeError(f"{workload}: child exited {done.returncode}")
        record = json.loads(result.read_text())
        shutil.rmtree(result.with_suffix(".out"), ignore_errors=True)
        return record


def measure(runner: Runner, workload, repeats: int, seconds: float,
            setups: int, trace: bool) -> dict:
    """Every child a workload needs, and the metrics read off their records."""
    traced = ["--sample", "--profile"] if trace else []
    if workload.warm:
        children = [runner.child(workload.name, "--warmup", "--repeats", str(repeats),
                                 "--seconds", str(seconds), *traced)]
    else:
        children = []

        def cold_repeat() -> dict:
            children.append(runner.child(workload.name, "--repeats", "1"))
            return children[-1]["passes"][0]

        timed_repeats(cold_repeat, repeats, seconds)
        children += [runner.child(workload.name, flag) for flag in traced]
    setup_only = []
    while len(children) + len(setup_only) < setups:
        setup_only.append(runner.child(workload.name, "--setup-only"))
    return summarise(workload, children, [c["setup_s"] for c in children + setup_only])


def put(table: dict, name: str, value, **more) -> None:
    """File one metric; a timing sample's summary brings its quartiles."""
    metric = BY_NAME[name]
    if isinstance(value, dict):
        more = {**{k: value[k] for k in ("q1", "q3", "n")}, **more}
        value = value["median"]
    table[name] = {"value": value, "unit": metric.unit, "kind": metric.kind, **more}


def summarise(workload, children: list, setup_samples: list) -> dict:
    first = children[0]
    records = first["records"]
    facts = first["facts"]
    ops = merge_ops(children)
    failures = [op for op in ops.values() if op["error"]]
    passes = [p for child in children for p in child["passes"]]
    counted = [p for p in passes if p["mode"] == "plain" and not p["flagged"]]
    walls = [p["wall_s"] for p in counted]

    end_to_end: dict = {}
    put(end_to_end, "wall_s", summary(walls))
    put(end_to_end, "records_per_wall_s", summary([records / w for w in walls]),
        note=f"{records} input records")
    put(end_to_end, "setup_s", summary(setup_samples))
    # Of the children that ran untraced repeats, not of the tracing ones.
    put(end_to_end, "peak_rss_mb",
        max(c["peak_rss_mb"] for c in children
            if any(p["mode"] == "plain" for p in c["passes"])))
    sim_seconds = sum(f.get("sim_seconds", 0.0) for f in facts.values())
    if sim_seconds:
        put(end_to_end, "sim_throughput_mrec_s",
            sum(f["records"] for f in facts.values()) / sim_seconds / 1e6)
    lags = sorted(lag for f in facts.values() for lag in f.get("lags_us", ()))
    latencies = [f for f in facts.values() if "buffer_latency_mean_us" in f]
    if lags:
        put(end_to_end, "sim_lag_p50_us", percentile(lags, 0.5),
            note=f"p50 of {len(lags)} window fires")
        tail = tail_quantile(lags)
        if tail is not None:
            put(end_to_end, "sim_lag_tail_us", tail[1],
                note=f"{tail[0]} of {len(lags)} window fires")
    elif latencies:
        # The transfer bench exposes only the mean and the maximum.
        total = sum(f["records"] for f in latencies)
        put(end_to_end, "sim_lag_p50_us",
            sum(f["buffer_latency_mean_us"] * f["records"] for f in latencies) / total,
            note=f"mean buffer latency over {len(latencies)} cells")
        put(end_to_end, "sim_lag_tail_us",
            max(f["buffer_latency_max_us"] for f in latencies),
            note="max buffer latency")
    put(end_to_end, "ops_failed_share", len(failures) / len(ops),
        note=f"{len(failures)} of {len(ops)} operations")

    result = {
        "workload": workload.name, "seed": first["seed"], "scale": first["scale"],
        "ops_attempted": len(ops), "ops_failed": len(failures),
        "failures": [{"op": op["op"], "error": op["error"]} for op in failures],
        "digests": {op["op"]: op["digest"] for op in ops.values()},
        "end_to_end": end_to_end,
        "repeats": [{**{k: p[k] for k in ("mode", "wall_s", "stolen_share", "flagged")},
                     "cells": {row["cell"]: row["wall_s"] for row in p["cells"]}}
                    for p in passes],
    }
    sampled = next((c for c in children if "sampler" in c), None)
    profiled = next((c for c in children if "profile" in c), None)
    if sampled and profiled:
        spans = [s for c in children for s in c.get("spans", ())]
        result["per_layer"] = layer_metrics(
            first, facts, counted, passes, sampled, profiled, spans)
        result["spans"] = spans
    return result


def merge_ops(children: list) -> dict:
    """One verdict per operation across a workload's children."""
    ops: dict = {}
    for child in children:
        for op in child.get("ops", ()):
            seen = ops.setdefault(op["op"], dict(op))
            if seen["error"] is None and op["error"] is not None:
                seen["error"] = op["error"]
            elif seen["error"] is None and op["digest"] != seen["digest"]:
                seen["error"] = "digest differs between repeats: not deterministic"
    return ops


def layer_metrics(first, facts, plain, passes, sampled, profiled, spans) -> dict:
    """Per-layer metrics; ``plain`` are the counted untraced passes."""
    table: dict = {}
    cells = list(facts.values())

    def total(key: str) -> float:
        return sum(f.get(key, 0) for f in cells)

    # A short body is sampled several times over; report one body's worth.
    sample_walls = [p["wall_s"] for p in passes if p["mode"] == "sample"]

    def span_total(name: str, field: str = "") -> float:
        picked = [s for s in spans if s["name"] == name and s["phase"] == "sample"]
        if field:
            return sum(s.get(field, 0) for s in picked) // len(sample_walls)
        return sum(s["end"] - s["start"] for s in picked) / len(sample_walls)

    self_s = {layer: seconds / len(sample_walls)
              for layer, seconds in sampled["sampler"]["self_s"].items()}
    sampled_s = sum(self_s.values())
    calls = profiled["profile"]["calls"]
    entries = profiled["profile"]["entries"]
    for layer in LAYERS:
        put(table, f"{layer}.self_s", self_s.get(layer, 0.0))
        put(table, f"{layer}.self_share", self_s.get(layer, 0.0) / sampled_s)
        put(table, f"{layer}.calls", calls.get(layer, 0))
    put(table, "other.self_share", self_s.get("other", 0.0) / sampled_s)

    sim_events = span_total("simnet.kernel.run", "sim_events")
    put(table, "simnet.kernel.sim_events", sim_events)
    put(table, "simnet.kernel.cancelled_events",
        span_total("simnet.kernel.run", "cancelled_events"))
    put(table, "simnet.kernel.run_s", span_total("simnet.kernel.run"))
    if sim_events:
        put(table, "simnet.kernel.host_us_per_sim_event",
            self_s.get("simnet.kernel", 0.0) * 1e6 / sim_events)
    counted_records = total("counted_records")
    if counted_records:
        put(table, "simnet.cost_model.sim_cycles_per_record",
            total("cycles") / counted_records)
        put(table, "simnet.cost_model.sim_mem_bytes_per_record",
            total("mem_bytes") / counted_records)
    if any("network_bytes" in f for f in cells):
        put(table, "channel.sim_network_bytes", total("network_bytes"))
        put(table, "rdma.retransmits", total("retransmits"))
        put(table, "state.result_keys", total("result_keys"))
    if any("connections" in f for f in cells):
        put(table, "channel.connections", total("connections"))
    if any("credit_stall_us" in f for f in cells):
        put(table, "channel.sim_credit_stall_us", total("credit_stall_us"))
        put(table, "channel.sim_buffer_latency_us",
            sum(f["buffer_latency_mean_us"] * f["records"] for f in cells)
            / total("records"))
    if any("lags_us" in f for f in cells):
        put(table, "core.windows_fired", sum(len(f.get("lags_us", ())) for f in cells))

    # A workload whose inputs the CLI makes only states its size: report
    # what the engines were seen to process instead.
    generated = any("sim_seconds" in f for f in cells)
    input_records = (first["records"] if generated
                     else span_total("core.engine_run", "records"))
    put(table, "workloads.input_records", input_records)
    if input_records:
        put(table, "state.host_us_per_record",
            self_s.get("state", 0.0) * 1e6 / input_records)
    put(table, "core.engine_run_s", span_total("core.engine_run"))
    put(table, "core.compile_s", entries["core.compile_s"]["s"], note="under cProfile")
    put(table, "workloads.flows_s", span_total("workloads.flows"))
    put(table, "baselines.reference_s",
        first["reference_s"] + span_total("baselines.reference"))
    put(table, "runtime.oracle_diff_s",
        first["oracle_diff_s"] + entries["runtime.oracle_diff_s"]["s"])

    def cell_wall(name: str) -> float:
        return summary([row["wall_s"] for p in plain for row in p["cells"]
                        if row["cell"] == name])["median"]

    for plane in PLANES:
        attached = [name for name, tag in first["planes"].items() if tag == plane]
        if attached:
            base = cell_wall("detached")
            put(table, f"{plane}.attach_overhead_ratio",
                sum(cell_wall(name) for name in attached) / len(attached) / base,
                note=f"base: detached {base:.4f} s")
    for name, key in (
        ("faults.checkpoints_committed", "checkpoints_committed"),
        ("faults.snapshot_rounds_complete", "snapshot_rounds_complete"),
        ("elastic.moved_bytes", "moved_bytes"),
        ("elastic.moves_completed", "moves_completed"),
        ("overload.offered", "offered"),
        ("overload.shed", "shed"),
        ("sanitizer.checks", "sanitizer_checks"),
    ):
        if any(key in f for f in cells):
            put(table, name, total(key))
    delays = [f["delay_p99_ms"] for f in cells if "delay_p99_ms" in f]
    if delays:
        put(table, "overload.sim_delay_p99_ms", max(delays))

    put(table, "grid.cells", entries["grid.cells"]["calls"])
    put(table, "grid.run_grid_s", entries["grid.run_grid_s"]["s"], note="under cProfile")
    put(table, "metrics.render_s", entries["metrics.render_s"]["s"], note="under cProfile")
    put(table, "harness.cli_s", span_total("harness.cli"))
    base = summary([p["wall_s"] for p in plain])["median"]
    put(table, "harness.stolen_share",
        summary([p["stolen_share"] for p in plain])["median"])
    for name, mode in (("trace.sampler_overhead_ratio", "sample"),
                       ("trace.profiler_overhead_ratio", "profile")):
        wall = summary([p["wall_s"] for p in passes if p["mode"] == mode])["median"]
        put(table, name, wall / base, note=f"base: untraced {base:.4f} s")
    put(table, "trace.samples", sampled["sampler"]["samples"])
    return table


# -- output ------------------------------------------------------------------

def show(entry: dict) -> str:
    value = entry["value"]
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    if "n" in entry:
        text += f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']}]"
    if "note" in entry:
        text += f"  ({entry['note']})"
    return text


def print_result(result: dict) -> None:
    print(f"\n== {result['workload']} (seed {result['seed']}"
          + (f", inputs / {result['scale']}" if result["scale"] != 1 else "") + ") ==")
    print(f"  operations: {result['ops_attempted']} attempted, "
          f"{result['ops_failed']} failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure['op']}: {failure['error'].strip().splitlines()[-1]}")
    flagged = sum(1 for p in result["repeats"] if p["flagged"])
    if flagged:
        print(f"  {flagged} timed repeat(s) flagged (stolen share > limit) and re-run")
    timed = [p["cells"] for p in result["repeats"]
             if p["mode"] == "plain" and not p["flagged"]]
    if timed:
        print("  cell wall_s (median): " + ", ".join(
            f"{cell} {summary([cells[cell] for cells in timed])['median']:.3f}"
            for cell in timed[0]))
    for metric in END_TO_END:
        entry = result["end_to_end"].get(metric.name)
        if entry is not None:
            print(f"  {metric.name:<24} {metric.unit:<9} {metric.kind:<5} {show(entry)}")
    if "per_layer" not in result:
        return
    table = result["per_layer"]
    print(f"  {'layer':<20} {'self_s':>9} {'self_share':>11} {'calls':>11}")
    for layer in LAYERS:
        print(f"  {layer:<20} {table[layer + '.self_s']['value']:>9.4f}"
              f" {table[layer + '.self_share']['value']:>11.4f}"
              f" {table[layer + '.calls']['value']:>11d}")
    listed = {f"{layer}.{part}" for layer in LAYERS
              for part in ("self_s", "self_share", "calls")}
    for metric in PER_LAYER:
        if metric.name not in listed and metric.name in table:
            print(f"  {metric.name:<42} {metric.unit:<9} {metric.kind:<5}"
                  f" {show(table[metric.name])}")


def driver_line(result: dict, trace: bool) -> str:
    """The one JSON object the benchmark driver reads."""
    metrics = {}
    if trace:
        # The schema wants every name on every workload: a metric a
        # workload cannot produce is 0 here, and absent everywhere else.
        table = {**result["end_to_end"], **result["per_layer"]}
        for metric in CONTRACT_PER_LAYER:
            value = table.get(metric.name, {"value": 0})["value"]
            metrics[metric.name] = {"value": value, "unit": metric.unit}
    else:
        for metric in CONTRACT_END_TO_END:
            metrics[metric.name] = {
                "value": result["end_to_end"][metric.name]["value"], "unit": metric.unit}
    return json.dumps({
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    })


# -- entry point -------------------------------------------------------------

def run_set(args, names: list, pins) -> dict:
    """One full set of runs: every named workload, one after another."""
    started = time.perf_counter()
    runner = Runner(args.seed, 10 if args.smoke else 1, pins)
    results = {}
    try:
        for workload in WORKLOADS:
            if workload.name not in names:
                continue
            repeats = args.repeats or (5 if workload.warm else 3)
            print(f"[{workload.name}] ...", file=sys.stderr, flush=True)
            results[workload.name] = measure(
                runner, workload, 1 if args.smoke else repeats, args.seconds,
                1 if args.smoke else 5, not args.no_trace)
    finally:
        runner.close()
    return {"schema": 1, "seed": args.seed, "smoke": args.smoke,
            "total_wall_s": time.perf_counter() - started, "workloads": results}


def main(argv=None) -> int:
    names = [w.name for w in WORKLOADS]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names, default=None,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=0,
                        help="timed repeats (default: 5 warm, 3 cold)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating until this much time is measured")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="write every metric, repeat and span here")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="inputs / 10, one repeat, no pins: under 30 s")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two full sets back to back, held to the ledger's bounds")
    parser.add_argument("--repin", action="store_true",
                        help="regenerate pins.json (benchmark PRs only)")
    parser.add_argument("--pins", type=pathlib.Path, default=PINS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: print one JSON line of end-to-end (0) "
                             "or per-layer (1) metrics for a single --workload")
    args = parser.parse_args(argv)
    # subprocess.run kills its child on any exception: make SIGTERM one.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro").is_dir():
        print(f"ledger: {SRC}/repro not found; run from a checkout", file=sys.stderr)
        return 2
    selected = args.workload or names
    pins = None if args.smoke or args.repin else args.pins

    if args.trace is not None:
        if len(selected) != 1:
            parser.error("--trace takes exactly one --workload")
        # The driver allows a run 180 s; a hung child must not outlive it.
        runner = Runner(args.seed, 1, pins, timeout_s=120.0)
        try:
            workload = next(w for w in WORKLOADS if w.name == selected[0])
            if args.trace:
                result = measure(runner, workload, 1, 0.0, 0, True)
            else:
                result = measure(runner, workload, args.repeats or (3 if workload.warm else 2),
                                 args.seconds, 5, False)
        finally:
            runner.close()
        print_result(result)
        if args.json is not None:
            args.json.write_text(json.dumps(result, indent=1) + "\n")
        print(driver_line(result, bool(args.trace)))
        return 0

    if args.repin:
        if args.seed != DEFAULT_SEED or args.smoke:
            parser.error("--repin takes the default seed at full size")
        args.repeats, args.no_trace = 1, True
        done = run_set(args, names, None)
        table = {name: result["digests"] for name, result in done["workloads"].items()}
        args.pins.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.pins}")
        return 0

    done = run_set(args, selected, pins)
    for result in done["workloads"].values():
        print_result(result)
    failed = sum(r["ops_failed"] for r in done["workloads"].values())
    verdict = 0 if failed == 0 else 1
    if args.selfcheck:
        again = run_set(args, selected, pins)
        print("\n== selfcheck: second set against the first ==")
        verdict |= compare.report(done, again, same_code=True)
        done["selfcheck"] = again
    if args.json is not None:
        args.json.write_text(json.dumps(done, indent=1) + "\n")
    print(f"\nops_failed: {failed}; total wall {done['total_wall_s']:.1f} s")
    return verdict


if __name__ == "__main__":
    raise SystemExit(main())
