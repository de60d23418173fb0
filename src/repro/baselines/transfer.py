"""Two-node producer/consumer benches for the drill-down experiments.

The paper's Sec. 8.3 isolates the data plane: one producer node streams
pre-generated data to one consumer node over a single NIC, and the
consumer applies the stateful operator, RO's per-key count.  The benches
run any one-stream count query (RO, YSB) and refuse every other query
with a ``ConfigError``.  Two shapes are compared:

* :class:`SlashTransferBench` — Slash's shape: producer thread *i* feeds
  consumer thread *i* over one RDMA channel (no partitioning; consumers
  update shared-mutable-style local fragments);
* :class:`UpParTransferBench` — UpPar's shape: every producer thread
  hash-partitions records across *all* consumer threads (fan-out
  channels, data-dependent routing).

These benches produce Figs. 8a-8d (buffer-size, parallelism, and skew
sweeps), the top-down breakdowns of Figs. 9-10, and Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Generator, Optional

import numpy as np

from repro.baselines.costs import UPPAR_COSTS, ExchangeCosts
from repro.channel.channel import CHANNEL_EOS, RdmaChannel
from repro.channel.circular_queue import FOOTER_BYTES
from repro.common.config import ClusterConfig, DEFAULT_CREDITS, paper_cluster
from repro.common.errors import ConfigError
from repro.core.aggregations import run_bounds
from repro.core.costs import DEFAULT_SLASH_COSTS, SlashCosts, quantize_working_set
from repro.core.pipeline import AggregationPipeline, compile_query
from repro.core.records import RecordBatch, Schema
from repro.rdma.connection import ConnectionManager
from repro.simnet.cluster import Cluster
from repro.simnet.counters import HwCounters
from repro.simnet.kernel import Simulator
from repro.state.partition import stable_hash_array
from repro.workloads.base import Workload

MESSAGE_HEADER_BYTES = 48


class _CountRuns:
    """The state fold for count queries: sorted runs merged in linear time.

    A count is exact in any order and grouping, so a message's survivors
    are never reduced on their own.  :meth:`stage` sorts them once
    (``np.sort`` for one window, a ``(window, key)`` lexsort otherwise),
    keeps each window's sorted run and returns the message's number of
    distinct ``(window, key)`` groups, the number its group columns would
    have had.  Once the staged rows reach ``max(FOLD_ROWS, kept rows)``,
    each window's staged runs are reduced to one sorted block of unique
    keys with counts, and the block and that window's kept unique run are
    merged in one linear two-run merge, so kept rows are never re-sorted.
    At most ``2 * max(FOLD_ROWS, distinct groups)`` rows plus one message
    are resident.  :meth:`fold_into` fills the state in ascending
    ``(window, key)`` order.  Only Python-side bookkeeping moves;
    per-message simulated costs are charged exactly as before.
    """

    FOLD_ROWS = 1 << 16

    def __init__(self):
        self._staged: dict[int, list[np.ndarray]] = {}
        self._kept: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._staged_rows = 0
        self._kept_rows = 0

    def stage(self, window_ids: np.ndarray, keys: np.ndarray) -> int:
        """Stage one non-empty message; its distinct ``(window, key)`` count."""
        if (window_ids == window_ids[0]).all():
            run = np.sort(keys)
            self._staged.setdefault(int(window_ids[0]), []).append(run)
            groups = 1 + int(np.count_nonzero(run[1:] != run[:-1]))
        else:
            order = np.lexsort((keys, window_ids))
            windows, sorted_keys = window_ids[order], keys[order]
            groups = len(run_bounds(sorted_keys, windows)) - 1
            cuts = np.flatnonzero(windows[1:] != windows[:-1]) + 1
            firsts = windows[np.concatenate(([0], cuts))].tolist()
            for window, run in zip(firsts, np.split(sorted_keys, cuts)):
                self._staged.setdefault(window, []).append(run)
        self._staged_rows += len(keys)
        if self._staged_rows >= max(self.FOLD_ROWS, self._kept_rows):
            self._fold()
        return groups

    def _fold(self) -> None:
        """Merge every window's staged runs into its kept unique run."""
        for window, runs in self._staged.items():
            block = np.sort(np.concatenate(runs))
            bounds = run_bounds(block)
            keys, counts = block[bounds[:-1]], np.diff(bounds)
            if window in self._kept:
                kept_keys, kept_counts = self._kept[window]
                keys = np.concatenate((kept_keys, keys))
                # Two sorted runs: a stable argsort is timsort, which
                # finds both runs and merges them in one linear pass.
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
                counts = np.concatenate((kept_counts, counts))[order]
                bounds = run_bounds(keys)
                keys = keys[bounds[:-1]]
                counts = np.add.reduceat(counts, bounds[:-1])
            self._kept[window] = keys, counts
        self._staged.clear()
        self._staged_rows = 0
        self._kept_rows = sum(len(keys) for keys, _ in self._kept.values())

    def fold_into(self, state: dict) -> None:
        """Fill ``state`` in ascending ``(window, key)`` order."""
        self._fold()
        for window in sorted(self._kept):
            keys, counts = self._kept[window]
            state.update(zip(zip(repeat(window), keys.tolist()), counts.tolist()))


@dataclass
class TransferResult:
    """Observables of one two-node transfer run."""

    system: str
    workload: str
    threads: int
    buffer_bytes: int
    records: int
    payload_bytes: float
    sim_seconds: float
    mean_latency_s: float
    max_latency_s: float
    credit_stall_s: float
    sender_counters: HwCounters = field(default_factory=HwCounters)
    receiver_counters: HwCounters = field(default_factory=HwCounters)
    state: dict = field(default_factory=dict)

    @property
    def throughput_bytes_per_s(self) -> float:
        return self.payload_bytes / self.sim_seconds if self.sim_seconds > 0 else 0.0

    @property
    def throughput_records_per_s(self) -> float:
        return self.records / self.sim_seconds if self.sim_seconds > 0 else 0.0


class _TransferBase:
    """Shared setup for the two transfer shapes."""

    name = "transfer"

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        credits: int = DEFAULT_CREDITS,
        buffer_bytes: int = 64 * 1024,
        threads: int = 2,
        signal_writes: bool = False,
    ):
        if threads < 1:
            raise ConfigError("need at least one thread per side")
        self.cluster_config = (cluster_config or paper_cluster(2)).with_nodes(2)
        if threads > self.cluster_config.node.cpu.cores:
            raise ConfigError(f"{threads} threads exceed the per-node core count")
        self.credits = credits
        self.buffer_bytes = buffer_bytes
        self.threads = threads
        self.signal_writes = signal_writes

    def _setup(
        self, workload: Workload
    ) -> tuple[AggregationPipeline, Simulator, Cluster, ConnectionManager]:
        """The query's count pipeline and a fresh rack, once the query is a
        one-stream count and one message of its record fits one buffer
        (else a ``ConfigError``)."""
        query = workload.build_query()
        plan = compile_query(query)
        if plan.is_join or plan.crdt.name != "count":
            what = "is a join" if plan.is_join else f"aggregates with {plan.crdt.name}"
            raise ConfigError(
                f"the transfer benches run one-stream count queries; "
                f"{query.name} {what}"
            )
        record_bytes = query.streams[0].schema.record_bytes
        need = FOOTER_BYTES + MESSAGE_HEADER_BYTES + record_bytes
        if self.buffer_bytes < need:
            raise ConfigError(
                f"buffer_bytes={self.buffer_bytes} cannot hold one {query.name} "
                f"message: need at least {need} B ({FOOTER_BYTES} B footer + "
                f"{MESSAGE_HEADER_BYTES} B header + {record_bytes} B record)"
            )
        sim = Simulator()
        cluster = Cluster(sim, self.cluster_config)
        return plan.aggregation, sim, cluster, ConnectionManager(cluster)

    def _message_rows(self, schema: Schema) -> int:
        """The most records of ``schema`` one buffer-sized message holds."""
        capacity = self.buffer_bytes - FOOTER_BYTES - MESSAGE_HEADER_BYTES
        return max(1, capacity // schema.record_bytes)

    def _rebatched_flow(
        self, workload: Workload, thread: int, schema: Schema
    ) -> list[RecordBatch]:
        """The producer flow for one thread, re-packed to fill one buffer.

        Batches are coalesced and re-cut so every message fills the channel
        buffer (modulo the final remainder) — the buffer-size sweep of
        Fig. 8a/8b is meaningless otherwise.
        """
        # All of node 0's flows at once: the threads share one Zipf table.
        flow = workload.flows(1, self.threads)[0, thread]
        data = [batch.data for _stream, batch in flow if len(batch)]
        if not data:
            return []
        data = np.concatenate(data)
        limit = self._message_rows(schema)
        return [
            RecordBatch(schema, data[start:start + limit])
            for start in range(0, len(data), limit)
        ]

    def _collect(
        self,
        sim: Simulator,
        cluster: Cluster,
        workload: Workload,
        channels: list,
        records: int,
        state: dict,
    ) -> TransferResult:
        payload = sum(ch.stats.payload_bytes for ch in channels)
        latencies = [ch.stats for ch in channels if ch.stats.messages]
        mean_latency = (
            sum(s.mean_latency_s * s.messages for s in latencies)
            / sum(s.messages for s in latencies)
            if latencies
            else 0.0
        )
        sender = HwCounters()
        receiver = HwCounters()
        for thread in range(self.threads):
            sender.merge(cluster.node(0).core(thread).counters)
            receiver.merge(cluster.node(1).core(thread).counters)
        result = TransferResult(
            system=self.name,
            workload=workload.name,
            threads=self.threads,
            buffer_bytes=self.buffer_bytes,
            records=records,
            payload_bytes=payload,
            sim_seconds=sim.now,
            mean_latency_s=mean_latency,
            max_latency_s=max((s.max_latency_s for s in latencies), default=0.0),
            credit_stall_s=sum(ch.stats.credit_stall_s for ch in channels),
            sender_counters=sender,
            receiver_counters=receiver,
            state=state,
        )
        sim.close()
        return result


class SlashTransferBench(_TransferBase):
    """Producer i -> consumer i over one RDMA channel each (no routing)."""

    name = "slash"

    def __init__(self, *args, costs: SlashCosts = DEFAULT_SLASH_COSTS, **kwargs):
        super().__init__(*args, **kwargs)
        self.costs = costs

    def run(self, workload: Workload) -> TransferResult:
        pipeline, sim, cluster, cm = self._setup(workload)
        channels = [
            RdmaChannel.create(
                cm, 0, 1, credits=self.credits, buffer_bytes=self.buffer_bytes,
                name=f"slash-xfer{i}", signal_writes=self.signal_writes,
            )
            for i in range(self.threads)
        ]
        merged = _CountRuns()
        records = [0]
        ws_bytes = [0.0]
        light = workload.name == "ro"
        update_profile = self.costs.light_update if light else self.costs.update
        update_lines = self.costs.light_update_lines if light else self.costs.update_lines

        def producer(thread: int) -> Generator[Any, Any, None]:
            core = cluster.node(0).core(thread)
            cost_model = core.cost_model
            flow = self._rebatched_flow(workload, thread, pipeline.chain.schema)
            endpoint = channels[thread].producer
            for batch in flow:
                yield from core.execute(
                    cost_model.cache.streaming_cost(batch.wire_bytes), 1.0
                )
                core.counters.count_records(len(batch))
                yield from endpoint.send(
                    core, batch, batch.wire_bytes + MESSAGE_HEADER_BYTES
                )
            yield from endpoint.close(core)

        def consumer(thread: int) -> Generator[Any, Any, None]:
            core = cluster.node(1).core(thread)
            cost_model = core.cost_model
            endpoint = channels[thread].consumer
            while True:
                batch, _n = yield from endpoint.recv(core)
                if batch is CHANNEL_EOS:
                    yield from endpoint.release(core)
                    return
                if pipeline.chain.op_count:
                    yield from core.execute(
                        cost_model.compute_cost(self.costs.pipeline), float(len(batch))
                    )
                filtered = pipeline.chain.apply(batch)
                records[0] += len(batch)
                if len(filtered):
                    working_set = quantize_working_set(ws_bytes[0] + 4096)
                    update_cost = cost_model.op(
                        update_profile, working_set, update_lines
                    )
                    yield from core.execute(update_cost, float(len(filtered)))
                    core.counters.count_records(len(filtered))
                    groups = merged.stage(pipeline.window_ids(filtered), filtered.keys)
                    ws_bytes[0] += groups * pipeline.group_bytes
                yield from endpoint.release(core)

        for thread in range(self.threads):
            sim.process(producer(thread), name=f"slash.prod{thread}")
            sim.process(consumer(thread), name=f"slash.cons{thread}")
        sim.run()
        state: dict = {}
        merged.fold_into(state)
        return self._collect(sim, cluster, workload, channels, records[0], state)


class UpParTransferBench(_TransferBase):
    """Every producer hash-partitions across all consumers (fan-out)."""

    name = "uppar"

    def __init__(self, *args, costs: ExchangeCosts = UPPAR_COSTS, **kwargs):
        super().__init__(*args, **kwargs)
        self.costs = costs

    def run(self, workload: Workload) -> TransferResult:
        pipeline, sim, cluster, cm = self._setup(workload)
        # channels[p][c]: producer thread p -> consumer thread c.
        channels = [
            [
                RdmaChannel.create(
                    cm, 0, 1, credits=self.credits, buffer_bytes=self.buffer_bytes,
                    name=f"uppar-xfer{p}->{c}", signal_writes=self.signal_writes,
                )
                for c in range(self.threads)
            ]
            for p in range(self.threads)
        ]
        merged = _CountRuns()
        records = [0]
        state_bytes = [0.0]
        schema = pipeline.chain.schema
        limit = self._message_rows(schema)
        fanout_ws = float(self.threads * self.buffer_bytes)
        light = workload.name == "ro"
        update_profile = self.costs.light_update if light else self.costs.update
        update_lines = self.costs.light_update_lines if light else self.costs.update_lines

        def producer(p: int) -> Generator[Any, Any, None]:
            core = cluster.node(0).core(p)
            cost_model = core.cost_model
            flow = self._rebatched_flow(workload, p, schema)
            pending: list[list[np.ndarray]] = [[] for _ in range(self.threads)]
            pending_rows = [0] * self.threads

            def flush(c: int) -> Generator[Any, Any, None]:
                if not pending[c]:
                    return
                data = (
                    np.concatenate(pending[c], dtype=schema.dtype)
                    if len(pending[c]) > 1 else pending[c][0]
                )
                pending[c] = []
                pending_rows[c] = 0
                for start in range(0, len(data), limit):
                    batch = RecordBatch(schema, data[start:start + limit])
                    yield from core.execute(
                        cost_model.compute_cost(self.costs.per_buffer), 1.0
                    )
                    yield from channels[p][c].producer.send(
                        core, batch, batch.wire_bytes + MESSAGE_HEADER_BYTES
                    )

            for batch_index, batch in enumerate(flow):
                yield from core.execute(
                    cost_model.cache.streaming_cost(batch.wire_bytes), 1.0
                )
                partition_cost = cost_model.op(
                    self.costs.partition,
                    fanout_ws,
                    self.costs.partition_lines_for(batch.schema.record_bytes),
                )
                yield from core.execute(partition_cost, float(len(batch)))
                core.counters.count_records(len(batch))
                cids = (
                    stable_hash_array(np.asarray(batch.keys, dtype=np.int64))
                    % np.uint64(self.threads)
                ).astype(np.int64)
                for c in range(self.threads):
                    rows = batch.data[cids == c]
                    if not len(rows):
                        continue
                    pending[c].append(rows)
                    pending_rows[c] += len(rows)
                    if pending_rows[c] >= limit:
                        yield from flush(c)
                if batch_index % 2 == 1:
                    # Buffer timeout (linger): partially-filled fan-out
                    # buffers must not sit until end-of-stream.
                    for c in range(self.threads):
                        if pending_rows[c]:
                            yield from flush(c)
            for c in range(self.threads):
                yield from flush(c)
                yield from channels[p][c].producer.close(core)

        def consumer(c: int) -> Generator[Any, Any, None]:
            core = cluster.node(1).core(c)
            cost_model = core.cost_model
            wake = sim.store(name=f"uppar.cons{c}.wake")
            endpoints = [channels[p][c].consumer for p in range(self.threads)]
            for p, endpoint in enumerate(endpoints):
                endpoint.notify_on_arrival(wake, p)
            done = [False] * self.threads
            while not all(done):
                ok, p = wake.try_get()
                if not ok:
                    p = yield from core.spin_wait(wake.get())
                endpoint = endpoints[p]
                while True:
                    ok, batch, _n = endpoint.try_recv(core)
                    if not ok:
                        break
                    if batch is CHANNEL_EOS:
                        done[p] = True
                        yield from endpoint.release(core)
                        continue
                    yield from core.execute(
                        cost_model.compute_cost(self.costs.dequeue),
                        float(len(batch)),
                    )
                    filtered = pipeline.chain.apply(batch)
                    records[0] += len(batch)
                    if len(filtered):
                        working_set = max(4096.0, state_bytes[0])
                        update_cost = cost_model.op(
                            update_profile, working_set, update_lines
                        )
                        yield from core.execute(update_cost, float(len(filtered)))
                        core.counters.count_records(len(filtered))
                        groups = merged.stage(
                            pipeline.window_ids(filtered), filtered.keys
                        )
                        state_bytes[0] += groups * pipeline.group_bytes
                    yield from endpoint.release(core)

        for thread in range(self.threads):
            sim.process(producer(thread), name=f"uppar.prod{thread}")
            sim.process(consumer(thread), name=f"uppar.cons{thread}")
        sim.run()
        state: dict = {}
        merged.fold_into(state)
        flat_channels = [channels[p][c] for p in range(self.threads) for c in range(self.threads)]
        return self._collect(sim, cluster, workload, flat_channels, records[0], state)
