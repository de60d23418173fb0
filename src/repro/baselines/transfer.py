"""Two-node producer/consumer benches for the drill-down experiments.

The paper's Sec. 8.3 isolates the data plane: one producer node streams
pre-generated data to one consumer node over a single NIC, and the
consumer applies the stateful operator (RO's per-key count, or the YSB
window).  Two shapes are compared:

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
from typing import Any, Generator, Optional

import numpy as np

from repro.baselines.costs import UPPAR_COSTS, ExchangeCosts
from repro.channel.channel import CHANNEL_EOS, RdmaChannel
from repro.channel.circular_queue import FOOTER_BYTES
from repro.common.config import ClusterConfig, DEFAULT_CREDITS, paper_cluster
from repro.common.errors import ConfigError
from repro.core.aggregations import segments
from repro.core.costs import DEFAULT_SLASH_COSTS, SlashCosts, quantize_working_set
from repro.core.pipeline import compile_query
from repro.core.records import RecordBatch
from repro.rdma.connection import ConnectionManager
from repro.simnet.cluster import Cluster, Core
from repro.simnet.counters import HwCounters
from repro.simnet.kernel import Simulator
from repro.state.crdt import Crdt
from repro.state.lss import LogStructuredStore
from repro.state.partition import stable_hash_array
from repro.state.ssb import state_keys
from repro.workloads.base import Workload

MESSAGE_HEADER_BYTES = 48


class _DeferredMerge:
    """Chunked state fold for order-independent integer partials.

    Count partials are int64 and integer addition is exact in any order,
    so instead of absorbing every message's groups into a store
    (:class:`_StoreFold`, one hash-index probe per group over millions of
    keys), consumers append the group columns here.  Once the rows
    appended since the last reduction reach ``max(FOLD_ROWS, rows that
    reduction left)``, every resident row is reduced to one sorted,
    unique ``(window, key)`` run, so at most ``2 * max(FOLD_ROWS,
    distinct groups)`` rows plus one message are resident.
    :meth:`fold_into` reduces once more after ``sim.run()`` and fills the
    state in ascending ``(window, key)`` order.  Only Python-side
    bookkeeping moves; per-message simulated costs are charged exactly as
    before.
    """

    FOLD_ROWS = 1 << 16

    def __init__(self):
        self._windows: list[np.ndarray] = []
        self._keys: list[np.ndarray] = []
        self._partials: list[np.ndarray] = []
        self._appended = 0
        self._kept = 0

    def add(self, result) -> None:
        self._windows.append(result.group_windows)
        self._keys.append(result.group_keys)
        self._partials.append(result.group_partials)
        self._appended += len(result.group_keys)
        if self._appended >= max(self.FOLD_ROWS, self._kept):
            self._reduce()

    def _reduce(self) -> None:
        """Reduce every resident row to one sorted, unique run.

        The partials are int64 counts, so the sort need not be stable."""
        order, bounds, windows, keys = segments(
            np.concatenate(self._windows), np.concatenate(self._keys), "quicksort"
        )
        partials = np.concatenate(self._partials)
        self._windows = [windows]
        self._keys = [keys]
        self._partials = [np.add.reduceat(partials[order], bounds[:-1])]
        self._kept = len(keys)
        self._appended = 0

    def fold_into(self, state: dict) -> None:
        if not self._keys:
            return
        self._reduce()
        state.update(
            zip(
                zip(self._windows[0].tolist(), self._keys[0].tolist()),
                self._partials[0].tolist(),
            )
        )


class _StoreFold:
    """The state fold for every other CRDT: each message's group columns
    are absorbed into one store, as a consumer's state is elsewhere."""

    def __init__(self, crdt: Crdt):
        self.store = LogStructuredStore(crdt, name="transfer")

    def add(self, result) -> None:
        windows = result.group_windows
        self.store.absorb_columns(
            state_keys(windows, result.group_keys), windows, result.group_partials
        )

    def fold_into(self, state: dict) -> None:
        """Fill ``state`` in first-arrival order."""
        state.update(zip(*self.store.scan_columns()))


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

    def _setup(self) -> tuple[Simulator, Cluster, ConnectionManager]:
        sim = Simulator()
        cluster = Cluster(sim, self.cluster_config)
        return sim, cluster, ConnectionManager(cluster)

    def _rebatched_flow(self, workload: Workload, thread: int) -> list:
        """The producer flow for one thread, re-packed to fill one buffer.

        Batches are coalesced per stream and re-cut so every message fills
        the channel buffer (modulo the final remainder) — the buffer-size
        sweep of Fig. 8a/8b is meaningless otherwise.
        """
        schema_bytes = {
            s.name: s.schema.record_bytes for s in workload.build_query().streams
        }
        capacity = self.buffer_bytes - FOOTER_BYTES - MESSAGE_HEADER_BYTES
        # All of node 0's flows at once: the threads share one Zipf table.
        flow = workload.flows(1, self.threads)[0, thread]
        per_stream: dict[str, list] = {}
        schemas: dict[str, Any] = {}
        order: list[str] = []
        for stream, batch in flow:
            if stream not in per_stream:
                per_stream[stream] = []
                order.append(stream)
                schemas[stream] = batch.schema
            if len(batch):
                per_stream[stream].append(batch.data)
        out = []
        for stream in order:
            if not per_stream[stream]:
                continue
            data = np.concatenate(per_stream[stream])
            limit = max(1, capacity // schema_bytes[stream])
            for start in range(0, len(data), limit):
                out.append(
                    (stream, RecordBatch(schemas[stream], data[start:start + limit]))
                )
        return out

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
        sim, cluster, cm = self._setup()
        plan = compile_query(workload.build_query())
        channels = [
            RdmaChannel.create(
                cm, 0, 1, credits=self.credits, buffer_bytes=self.buffer_bytes,
                name=f"slash-xfer{i}", signal_writes=self.signal_writes,
            )
            for i in range(self.threads)
        ]
        merged = _DeferredMerge() if plan.crdt.name == "count" else _StoreFold(plan.crdt)
        records = [0]
        ws_bytes = [0.0]
        light = workload.name == "ro"
        update_profile = self.costs.light_update if light else self.costs.update
        update_lines = self.costs.light_update_lines if light else self.costs.update_lines

        def producer(thread: int) -> Generator[Any, Any, None]:
            core = cluster.node(0).core(thread)
            cost_model = core.cost_model
            flow = self._rebatched_flow(workload, thread)
            endpoint = channels[thread].producer
            for stream, batch in flow:
                yield from core.execute(
                    cost_model.cache.streaming_cost(batch.wire_bytes), 1.0
                )
                core.counters.count_records(len(batch))
                yield from endpoint.send(
                    core, (stream, batch), batch.wire_bytes + MESSAGE_HEADER_BYTES
                )
            yield from endpoint.close(core)

        def consumer(thread: int) -> Generator[Any, Any, None]:
            core = cluster.node(1).core(thread)
            cost_model = core.cost_model
            endpoint = channels[thread].consumer
            while True:
                payload, _n = yield from endpoint.recv(core)
                if payload is CHANNEL_EOS:
                    yield from endpoint.release(core)
                    return
                stream, batch = payload
                pipeline = plan.pipeline_for(stream)
                if pipeline.chain.op_count:
                    yield from core.execute(
                        cost_model.compute_cost(self.costs.pipeline), float(len(batch))
                    )
                result = pipeline.process_batch(batch)
                records[0] += len(batch)
                if result.survivors:
                    working_set = quantize_working_set(ws_bytes[0] + 4096)
                    update_cost = cost_model.op(
                        update_profile, working_set, update_lines
                    )
                    yield from core.execute(update_cost, float(result.survivors))
                    core.counters.count_records(result.survivors)
                    merged.add(result)
                    ws_bytes[0] += result.state_bytes
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
        sim, cluster, cm = self._setup()
        plan = compile_query(workload.build_query())
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
        merged = _DeferredMerge() if plan.crdt.name == "count" else _StoreFold(plan.crdt)
        records = [0]
        state_bytes = [0.0]
        capacity = self.buffer_bytes - FOOTER_BYTES - MESSAGE_HEADER_BYTES
        fanout_ws = float(self.threads * self.buffer_bytes)
        light = workload.name == "ro"
        update_profile = self.costs.light_update if light else self.costs.update
        update_lines = self.costs.light_update_lines if light else self.costs.update_lines

        def producer(p: int) -> Generator[Any, Any, None]:
            core = cluster.node(0).core(p)
            cost_model = core.cost_model
            flow = self._rebatched_flow(workload, p)
            pending: list[list[np.ndarray]] = [[] for _ in range(self.threads)]
            pending_rows = [0] * self.threads
            limits: dict[str, int] = {}

            def flush(c: int, stream: str, schema) -> Generator[Any, Any, None]:
                if not pending[c]:
                    return
                data = (
                    np.concatenate(pending[c], dtype=schema.dtype)
                    if len(pending[c]) > 1 else pending[c][0]
                )
                pending[c] = []
                pending_rows[c] = 0
                limit = limits[stream]
                for start in range(0, len(data), limit):
                    batch = RecordBatch(schema, data[start:start + limit])
                    yield from core.execute(
                        cost_model.compute_cost(self.costs.per_buffer), 1.0
                    )
                    yield from channels[p][c].producer.send(
                        core, (stream, batch), batch.wire_bytes + MESSAGE_HEADER_BYTES
                    )

            last = (None, None)
            for batch_index, (stream, batch) in enumerate(flow):
                if last[0] is not None and stream != last[0]:
                    # Pending rows belong to the previous stream: send
                    # them under its name and schema before switching.
                    for c in range(self.threads):
                        yield from flush(c, *last)
                last = (stream, batch.schema)
                limits.setdefault(
                    stream, max(1, capacity // batch.schema.record_bytes)
                )
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
                    if pending_rows[c] >= limits[stream]:
                        yield from flush(c, stream, batch.schema)
                if batch_index % 2 == 1:
                    # Buffer timeout (linger): partially-filled fan-out
                    # buffers must not sit until end-of-stream.
                    for c in range(self.threads):
                        if pending_rows[c]:
                            yield from flush(c, stream, batch.schema)
            stream, schema = last
            for c in range(self.threads):
                if stream is not None:
                    yield from flush(c, stream, schema)
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
                    ok, payload, _n = endpoint.try_recv(core)
                    if not ok:
                        break
                    if payload is CHANNEL_EOS:
                        done[p] = True
                        yield from endpoint.release(core)
                        continue
                    stream, batch = payload
                    yield from core.execute(
                        cost_model.compute_cost(self.costs.dequeue),
                        float(len(batch)),
                    )
                    result = plan.pipeline_for(stream).process_batch(batch)
                    records[0] += len(batch)
                    if result.survivors:
                        working_set = max(4096.0, state_bytes[0])
                        update_cost = cost_model.op(
                            update_profile, working_set, update_lines
                        )
                        yield from core.execute(
                            update_cost, float(result.survivors)
                        )
                        core.counters.count_records(result.survivors)
                        merged.add(result)
                        state_bytes[0] += result.state_bytes
                    yield from endpoint.release(core)

        for thread in range(self.threads):
            sim.process(producer(thread), name=f"uppar.prod{thread}")
            sim.process(consumer(thread), name=f"uppar.cons{thread}")
        sim.run()
        state: dict = {}
        merged.fold_into(state)
        flat_channels = [channels[p][c] for p in range(self.threads) for c in range(self.threads)]
        return self._collect(sim, cluster, workload, flat_channels, records[0], state)
