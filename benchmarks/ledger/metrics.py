"""The ledger's vocabulary: layers, metric names, units, directions, bounds.

Every later perf or simplicity issue names its claim and its no-regression
set from the names defined here; ``BENCHMARK.json`` is the same table in
the driver's schema (``test_ledger.py`` keeps the two in step).

Each number is labelled *host* (what the simulator costs: medians of
repeats) or *sim* / *count* (what the modelled rack does: exact for a
seed, so two commits compare exactly).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

#: Digests in ``pins.json`` are those of this seed.
DEFAULT_SEED = 7

#: The layering DAG of ``tools/check_layering.py``, with ``simnet`` split by
#: file because kernel, cluster and cost model are optimised separately.
LAYERS = (
    "common", "simnet.kernel", "simnet.cluster", "simnet.cost_model",
    "simnet.trace", "rdma", "channel", "state", "membership", "metrics",
    "core", "elastic", "faults", "overload", "workloads", "baselines",
    "runtime", "grid", "sanitizer", "harness",
)


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line: the cells, the stated input size, and why it exists.
    why: str
    #: Timed repeats share one warmed interpreter (imports, memo caches,
    #: numpy); a cold workload pays a fresh interpreter for every repeat,
    #: as a CLI user does on every invocation.
    warm: bool = True


WORKLOADS = (
    Workload(
        "agg_state",
        "Slash YSB 4x4, windows=64, batch 500: uniform 40k rec/thread over 100k keys"
        " + Zipf(1.4) 60k rec/thread; state (LSS+CRDT+SSB) dominates, kernel/channel idle",
    ),
    Workload(
        "join_probe",
        "NB8 on Slash and UpPar (4x2, 9k rec/thread) + NB11 session join (4.5k rec/thread):"
        " append-and-probe join state, core pipeline dominates, kernel ~3%",
    ),
    Workload(
        "transfer_channel",
        "RO transfer bench, 4 threads x 240k rec: Slash@4KiB, UpPar@4KiB, Slash@64KiB;"
        " one sim event per few records, kernel/rdma/channel dominate, state ~2%",
    ),
    Workload(
        "planes_attached",
        "one Slash YSB 3x2 24k rec/thread scenario as 6 cells: detached, sanitizer, async-snapshot"
        " crash recovery, fluid rescale, fair shedding, sanitizer+rescale; the only plane load",
    ),
    Workload(
        "quick_suite",
        "cli run all --quick + grid traffic-slo + grid traffic-storm, serial, cold caches:"
        " 16 reports, what users and CI run; grid/metrics/harness/baselines carry weight",
        warm=False,
    ),
)

#: The four attachable planes of ``planes_attached``.
PLANES = ("faults", "elastic", "overload", "sanitizer")

_SIMNET_FILES = {
    "kernel": "simnet.kernel",
    "cluster": "simnet.cluster",
    "cost_model": "simnet.cost_model",
    "counters": "simnet.cost_model",
    "trace": "simnet.trace",
}


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; ``None`` outside ``repro``."""
    _head, sep, tail = filename.replace("\\", "/").rpartition("/repro/")
    if not sep:
        return None
    package, _slash, rest = tail.partition("/")
    if not rest:
        # repro/__init__.py and repro/__main__.py stitch the CLI together.
        return "harness"
    if package == "simnet":
        return _SIMNET_FILES.get(rest.removesuffix(".py"), "simnet.kernel")
    return package if package in LAYERS else None


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: "host": median of timed repeats; "sim"/"count": exact for a seed.
    kind: str
    #: End-to-end only: the share of the base by which the metric may get
    #: worse before a change counts as a regression (0 = must be identical).
    bound: Optional[float] = None


#: The host bounds are set from the sandbox's measured noise, not from a
#: wish: over ten runs the interquartile range of ``wall_s`` was 5-18 % of
#: its median (bursts of contention lasting longer than a run), so a bound
#: under a quarter would reject the benchmark's own repeats.  README, *Noise*.
END_TO_END = (
    Metric("wall_s", "s", "lower", "host", 0.25),
    Metric("records_per_wall_s", "rec/s", "higher", "host", 0.25),
    Metric("setup_s", "s", "lower", "host", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "host", 0.10),
    Metric("sim_throughput_mrec_s", "Mrec/s", "higher", "sim", 0.0),
    Metric("sim_lag_p50_us", "us", "lower", "sim", 0.0),
    Metric("sim_lag_tail_us", "us", "lower", "sim", 0.0),
    Metric("ops_failed_share", "fraction", "lower", "count", 0.0),
)

#: A regression smaller than this many seconds of ``setup_s`` is noise.
SETUP_FLOOR_S = 0.05

#: Two runs of the same code may differ by this much in a layer's share.
SHARE_TOLERANCE = 0.03


def _per_layer() -> tuple[Metric, ...]:
    out = []
    for layer in LAYERS:
        out.append(Metric(f"{layer}.self_s", "s", "lower", "host"))
        out.append(Metric(f"{layer}.self_share", "fraction", "lower", "host"))
        out.append(Metric(f"{layer}.calls", "count", "lower", "count"))
    out.append(Metric("other.self_share", "fraction", "lower", "host"))
    out += [
        Metric("simnet.kernel.sim_events", "count", "lower", "count"),
        Metric("simnet.kernel.cancelled_events", "count", "lower", "count"),
        Metric("simnet.kernel.run_s", "s", "lower", "host"),
        Metric("simnet.kernel.host_us_per_sim_event", "us", "lower", "host"),
        Metric("simnet.cost_model.sim_cycles_per_record", "cycles", "lower", "sim"),
        Metric("simnet.cost_model.sim_mem_bytes_per_record", "B", "lower", "sim"),
        Metric("channel.sim_network_bytes", "B", "lower", "sim"),
        Metric("channel.sim_credit_stall_us", "us", "lower", "sim"),
        Metric("channel.sim_buffer_latency_us", "us", "lower", "sim"),
        Metric("channel.connections", "count", "lower", "count"),
        Metric("rdma.retransmits", "count", "lower", "count"),
        Metric("state.result_keys", "count", "higher", "count"),
        Metric("state.host_us_per_record", "us", "lower", "host"),
        Metric("core.engine_run_s", "s", "lower", "host"),
        Metric("core.compile_s", "s", "lower", "host"),
        Metric("core.windows_fired", "count", "higher", "count"),
        Metric("workloads.flows_s", "s", "lower", "host"),
        Metric("workloads.input_records", "count", "higher", "count"),
        Metric("baselines.reference_s", "s", "lower", "host"),
        Metric("runtime.oracle_diff_s", "s", "lower", "host"),
    ]
    for plane in PLANES:
        out.append(Metric(f"{plane}.attach_overhead_ratio", "ratio", "lower", "host"))
    out += [
        Metric("faults.checkpoints_committed", "count", "higher", "count"),
        Metric("faults.snapshot_rounds_complete", "count", "higher", "count"),
        Metric("elastic.moved_bytes", "B", "lower", "sim"),
        Metric("elastic.moves_completed", "count", "higher", "count"),
        Metric("overload.offered", "count", "higher", "count"),
        Metric("overload.shed", "count", "lower", "count"),
        Metric("overload.sim_delay_p99_ms", "ms", "lower", "sim"),
        Metric("sanitizer.checks", "count", "higher", "count"),
        Metric("grid.cells", "count", "lower", "count"),
        Metric("grid.run_grid_s", "s", "lower", "host"),
        Metric("metrics.render_s", "s", "lower", "host"),
        Metric("harness.cli_s", "s", "lower", "host"),
        Metric("harness.stolen_share", "fraction", "lower", "host"),
        Metric("trace.sampler_overhead_ratio", "ratio", "lower", "host"),
        Metric("trace.profiler_overhead_ratio", "ratio", "lower", "host"),
        Metric("trace.samples", "count", "higher", "host"),
    ]
    return tuple(out)


PER_LAYER = _per_layer()

#: What ``BENCHMARK.json`` can hold.  Its end-to-end metrics must be present
#: and non-zero on every workload and vary from run to run, so the exact
#: ``sim_*`` metrics ride in its ``per_layer`` list and ``ops_failed_share``
#: is its ``failed``/``attempted`` pair; the ledger's own table, ``--json``
#: and ``compare.py`` treat all eight as end-to-end.
CONTRACT_END_TO_END = tuple(m for m in END_TO_END if m.kind == "host")
CONTRACT_PER_LAYER = tuple(m for m in END_TO_END if m.kind == "sim") + PER_LAYER

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


#: A timed repeat that lost more than this share of its wall time to the
#: shared machine is flagged and run again, at most ``MAX_RERUNS`` times.
STOLEN_LIMIT = 0.05
MAX_RERUNS = 3


def timed_repeats(one_pass: Callable[[], dict], repeats: int, seconds: float) -> None:
    """Call ``one_pass`` until ``repeats`` unflagged passes cover ``seconds``.

    ``one_pass`` returns a pass record (``wall_s``, ``stolen_share``,
    ``flagged``); flagged passes are reported but not counted.
    """
    counted, measured, reruns = 0, 0.0, 0
    while counted < repeats or (repeats and measured < seconds):
        pass_ = one_pass()
        if pass_["stolen_share"] > STOLEN_LIMIT and reruns < MAX_RERUNS:
            pass_["flagged"] = True
            reruns += 1
            continue
        counted += 1
        measured += pass_["wall_s"]


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles and n of a timing sample."""
    values = list(values)
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def tail_quantile(samples: Sequence[float]) -> Optional[tuple[str, float]]:
    """The highest of p90/p95/p99/p999 with >= 10 samples beyond it."""
    ordered = sorted(samples)
    for label, q in (("p999", 0.999), ("p99", 0.99), ("p95", 0.95), ("p90", 0.90)):
        if len(ordered) * (1.0 - q) >= 10:
            return label, percentile(ordered, q)
    return None
