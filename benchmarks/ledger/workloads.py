"""The five workloads: what each builds, runs, and checks.

Everything here drives the system through its stable public surface only —
``repro.runtime`` (``Scenario``, ``run_scenario``, ``make_workload``,
``REGISTRY``, ``diff_results``), the plain-data ``FaultPlan`` a chaos
``Scenario`` carries, and ``repro.harness.cli.main(argv)`` — never through
the harness modules the ROADMAP slates for deletion.

A workload is a closed loop in one process: ``build(seed, scale, out)``
generates the inputs from the seed (this is what ``setup_s`` times, after
the import), and the body runs the cells one after another.  The program
under test receives only the generated inputs.

An **operation** is one cell (or one CLI report in ``quick_suite``).  It
fails if it raises or exits non-zero, if it differs from the sequential
``reference`` engine on the same flows (paper property P2; for the shedding
cell, if the coordinator's ``offered == admitted + shed`` books do not
close), or if the sha256 of its canonical result differs from ``pins.json``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import pathlib
import time
from types import SimpleNamespace
from typing import Any, Callable, Optional

from repro.faults.plan import FaultPlan
from repro.harness import cli
from repro.runtime import REGISTRY, Scenario, diff_results, make_workload, run_scenario

class Inputs:
    """One generated input set — workload, query, flows — and its oracle."""

    def __init__(self, workload: str, overrides: dict, seed: int,
                 nodes: int, threads: int):
        self.workload = make_workload(workload, seed=seed, **overrides)
        self.query = self.workload.build_query()
        self.flows = self.workload.flows(nodes, threads)
        self.records = sum(
            len(batch) for flow in self.flows.values() for _stream, batch in flow
        )
        self.reference_s = 0.0
        self._reference = None

    @classmethod
    def of(cls, spec: Scenario) -> "Inputs":
        return cls(spec.workload, spec.workload_overrides, spec.seed,
                   spec.nodes, spec.threads)

    def reference(self):
        """The sequential reference engine's output on these flows."""
        if self._reference is None:
            started = time.perf_counter()
            self._reference = REGISTRY.create("reference").run(self.query, self.flows)
            self.reference_s = time.perf_counter() - started
        return self._reference


class Cell:
    """One operation: run it, judge its result, read facts off it."""

    name: str
    #: The generated inputs the cell runs on (``None``: the CLI makes them).
    inputs: Optional[Inputs] = None
    #: Input records: the stated input size behind ``records_per_wall_s``.
    records: int
    #: The plane whose attach overhead this cell measures, if any.
    plane: Optional[str] = None

    def run(self) -> Any:
        raise NotImplementedError

    #: Seconds the last ``failure`` call spent inside ``diff_results``.
    oracle_diff_s = 0.0

    def failure(self, result) -> Optional[str]:
        """Why ``result`` is wrong, or ``None``: P2 against the reference."""
        expected = self.inputs.reference()
        started = time.perf_counter()
        diff = diff_results(expected, self.output(result))
        self.oracle_diff_s = time.perf_counter() - started
        return None if diff.ok else diff.describe()

    def output(self, result):
        """``result`` as an envelope ``diff_results`` understands."""
        return result

    def canonical(self, result) -> str:
        """Sorted aggregates / join pairs + ``sim_seconds``, for the pin."""
        out = self.output(result)
        return repr((sorted(out.aggregates.items()), out.sorted_join_pairs(),
                     result.sim_seconds))

    def op_names(self) -> list[str]:
        """The operations this cell stands for (itself, by default)."""
        return [self.name]

    def judge(self, result) -> list[dict]:
        """Each operation's digest and, if it is wrong, why."""
        digest = hashlib.sha256(self.canonical(result).encode()).hexdigest()
        return [{"op": self.name, "digest": digest, "error": self.failure(result)}]

    def facts(self, result) -> dict:
        """Exact numbers the per-layer metrics are built from."""
        return {}


class ScenarioCell(Cell):
    """One ``run_scenario`` call."""

    def __init__(self, name: str, spec: Scenario, inputs: Inputs,
                 plane: Optional[str] = None, books: bool = False):
        self.name, self.spec, self.inputs = name, spec, inputs
        self.records, self.plane = inputs.records, plane
        #: A shedding cell legitimately differs from the reference; its
        #: check is the coordinator's exact shed accounting instead.
        self.books = books

    def run(self):
        return run_scenario(self.spec)

    def failure(self, result) -> Optional[str]:
        if not self.books:
            return super().failure(result)
        info = result.extra["overload"]
        if info["offered"] != self.inputs.records:
            return f"offered {info['offered']} != {self.inputs.records} generated"
        if info["offered"] != info["admitted"] + info["shed"]:
            return (f"offered {info['offered']} != admitted {info['admitted']}"
                    f" + shed {info['shed']}")
        return None

    def facts(self, result) -> dict:
        extra, counters = result.extra, result.counters
        facts = {
            "sim_seconds": result.sim_seconds,
            "lags_us": [lag * 1e6 for _at, lag in extra.get("trigger_events", ())],
            "result_keys": len(result.aggregates) + len(result.join_pairs),
            "cycles": counters.total_cycles,
            "mem_bytes": counters.mem_bytes,
            "counted_records": counters.records,
            "network_bytes": counters.network_bytes,
            "retransmits": counters.retransmits,
            "connections": extra.get("connections", 0),
        }
        if "faults" in extra:
            facts["checkpoints_committed"] = extra["faults"]["checkpoints_committed"]
            facts["snapshot_rounds_complete"] = extra["faults"]["snapshot_rounds_complete"]
        if "elastic" in extra:
            facts["moved_bytes"] = extra["elastic"]["moved_bytes"]
            facts["moves_completed"] = extra["elastic"]["moves_completed"]
        if "overload" in extra:
            facts["offered"] = extra["overload"]["offered"]
            facts["shed"] = extra["overload"]["shed"]
            facts["delay_p99_ms"] = extra["overload"]["delay_p99_ms"]
        if "sanitizer_checks" in extra:
            facts["sanitizer_checks"] = sum(extra["sanitizer_checks"].values())
        return facts


class TransferCell(Cell):
    """One RO transfer bench built by ``REGISTRY.transfer_bench``."""

    def __init__(self, name: str, system: str, buffer_bytes: int,
                 threads: int, inputs: Inputs):
        self.name, self.inputs, self.records = name, inputs, inputs.records
        self.system, self.buffer_bytes, self.threads = system, buffer_bytes, threads

    def run(self):
        bench = REGISTRY.transfer_bench(
            self.system, threads=self.threads, buffer_bytes=self.buffer_bytes
        )
        return bench.run(self.inputs.workload)

    def output(self, result):
        # The bench's state is the aggregates; it has no join output.
        return SimpleNamespace(aggregates=result.state, sorted_join_pairs=list)

    def facts(self, result) -> dict:
        sender, receiver = result.sender_counters, result.receiver_counters
        return {
            "sim_seconds": result.sim_seconds,
            "result_keys": len(result.state),
            "cycles": sender.total_cycles + receiver.total_cycles,
            "mem_bytes": sender.mem_bytes + receiver.mem_bytes,
            "counted_records": result.records,
            "network_bytes": result.payload_bytes,
            "retransmits": sender.retransmits + receiver.retransmits,
            "credit_stall_us": result.credit_stall_s * 1e6,
            # The bench exposes only the mean and the maximum buffer latency.
            "buffer_latency_mean_us": result.mean_latency_s * 1e6,
            "buffer_latency_max_us": result.max_latency_s * 1e6,
        }


class CliCell(Cell):
    """One ``cli.main(argv)`` call; each report it writes is an operation."""

    def __init__(self, name: str, argv: list, reports: list, out: pathlib.Path,
                 records: int):
        self.name, self.argv, self.reports, self.out = name, argv, reports, out
        #: Records the CLI's cells process (it generates them itself); a
        #: stated size, measured once from the traced pass's engine spans.
        self.records = records

    def run(self) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv + ["--out", str(self.out)])

    def op_names(self) -> list[str]:
        return self.reports

    def judge(self, result: int) -> list[dict]:
        ops = []
        for report in self.reports:
            path = self.out / f"{report}.txt"
            digest = reason = None
            if result != 0:
                reason = f"cli exited {result}"
            elif not path.is_file():
                reason = f"{path.name} not written"
            else:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
            ops.append({"op": report, "digest": digest, "error": reason})
        return ops


def _agg_state(seed: int, scale: int, _out) -> list:
    common = {"batch_records": 500, "windows": 64}
    uniform = Scenario("slash", "ysb", 4, 4, {
        "records_per_thread": 40_000 // scale, "key_range": 100_000, **common,
    }, seed=seed)
    zipf = Scenario("slash", "ysb", 4, 4, {
        "records_per_thread": 60_000 // scale, "zipf_z": 1.4, **common,
    }, seed=seed)
    return [ScenarioCell("ysb-uniform", uniform, Inputs.of(uniform)),
            ScenarioCell("ysb-zipf", zipf, Inputs.of(zipf))]


def _join_probe(seed: int, scale: int, _out) -> list:
    nb8 = Scenario("slash", "nb8", 4, 2,
                   {"records_per_thread": 9_000 // scale}, seed=seed)
    nb11 = Scenario("slash", "nb11", 4, 2,
                    {"records_per_thread": 4_500 // scale}, seed=seed)
    nb8_inputs = Inputs.of(nb8)
    return [
        ScenarioCell("nb8-slash", nb8, nb8_inputs),
        ScenarioCell("nb8-uppar", dataclasses.replace(nb8, engine="uppar"), nb8_inputs),
        ScenarioCell("nb11-slash", nb11, Inputs.of(nb11)),
    ]


def _transfer_channel(seed: int, scale: int, _out) -> list:
    threads = 4
    inputs = Inputs("ro", {"records_per_thread": 240_000 // scale}, seed, 1, threads)
    return [
        TransferCell("slash-4k", "slash", 4 * 1024, threads, inputs),
        TransferCell("uppar-4k", "uppar", 4 * 1024, threads, inputs),
        TransferCell("slash-64k", "slash", 64 * 1024, threads, inputs),
    ]


def _planes_attached(seed: int, scale: int, _out) -> list:
    nodes, records = 3, 24_000 // scale
    base = Scenario("slash", "ysb", nodes, 2, {"records_per_thread": records}, seed=seed)
    inputs = Inputs.of(base)
    # The planes' calibration baseline: the detached run fixes the horizon
    # the fault plan, the rescale instant and the paced rate are placed on.
    horizon = run_scenario(base).sim_seconds
    plan = FaultPlan.preset("leader-crash", seed, nodes, horizon)
    plan.validate(nodes, horizon_s=horizon)
    tunables = {
        "detect_s": horizon * 0.02,
        "watchdog_period_s": horizon * 0.01,
        "rto_s": max(5e-6, horizon * 0.001),
        "credit_timeout_s": max(2e-5, horizon * 0.005),
        "snapshot_interval_s": horizon * 0.04,
    }
    rescale = {"rescale_at": horizon * 0.35, "migration_strategy": "fluid",
               "rescale_overrides": {"action": "join", "add_nodes": 1}}
    crowd = {"ingest_rate_records_per_s": 2.0 * records / horizon,
             "flash_at_frac": 0.5, "flash_magnitude": 3.0}
    # The declared SLO is half the no-shed p99, so the overload is real.
    noshed = run_scenario(dataclasses.replace(
        base, slo_p99_ms=1.0, overload_overrides=crowd))
    slo_ms = noshed.extra["overload"]["delay_p99_ms"] * 0.5

    def cell(name, plane=None, books=False, **fields):
        return ScenarioCell(name, dataclasses.replace(base, **fields), inputs,
                            plane=plane, books=books)

    return [
        cell("detached"),
        cell("sanitizer", "sanitizer", sanitize=True),
        cell("faults-async-snapshot", "faults", fault_plan=plan,
             fault_overrides=tunables, recovery_strategy="async-snapshot"),
        cell("elastic-fluid", "elastic", **rescale),
        cell("overload-fair", "overload", books=True, slo_p99_ms=slo_ms,
             shed_policy="fair", overload_overrides=crowd),
        # The widest combination that held on every seed tried: crash x
        # rescale, sanitizer x async-snapshot and epoch-buddy recovery at
        # this size do not (see README), and an operation may never fail.
        cell("sanitized-rescale", sanitize=True, **rescale),
    ]


#: Records the quick suite's cells process at the default seed
#: (``RunResult.input_records`` + ``TransferResult.records`` over every
#: engine span of a traced pass): the stated input size behind
#: ``records_per_wall_s``.  The CLI generates its own inputs, so the
#: benchmark cannot count them with tracing off; the traced pass reports
#: what it measured as ``workloads.input_records``.
QUICK_SUITE_RECORDS = {"run-all": 1_476_000, "run-fig6a": 25_920,
                       "traffic-slo": 42_002, "traffic-storm": 24_000}


def _quick_suite(seed: int, scale: int, out: pathlib.Path) -> list:
    if scale == 1:
        name, argv, reports = "run-all", ["run", "all", "--quick"], list(cli.EXPERIMENTS)
    else:
        # Most quick experiments fix their own sizes, so a smoke run takes
        # the one figure that still covers all four baseline engines.
        name, argv, reports = (
            "run-fig6a", ["run", "fig6a", "--quick", "--records", "120"], ["fig6a-c"])
    cells = [CliCell(name, argv, reports, out, QUICK_SUITE_RECORDS[name])]
    for grid in ("traffic-slo", "traffic-storm"):
        argv = ["grid", grid, "--set", f"seed={seed}"]
        # Expanding the grid validates its specs at zero simulation cost.
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv + ["--dry-run"]) != 0:
                raise ValueError(f"grid {grid} does not expand at seed {seed}")
        cells.append(CliCell(grid, argv, [grid], out, QUICK_SUITE_RECORDS[grid]))
    return cells


#: ``build(seed, scale, out) -> cells`` per workload of ``metrics.WORKLOADS``;
#: ``scale`` divides input sizes (10 under ``--smoke``), ``out`` is scratch.
BUILDERS: dict[str, Callable[[int, int, pathlib.Path], list]] = {
    "agg_state": _agg_state,
    "join_probe": _join_probe,
    "transfer_channel": _transfer_channel,
    "planes_attached": _planes_attached,
    "quick_suite": _quick_suite,
}

#: Operations ``pins.json`` covers at any seed: the CLI's ``run all`` takes
#: no seed, so its reports do not move with ``--seed``.
SEEDLESS_OPS = frozenset(cli.EXPERIMENTS)
