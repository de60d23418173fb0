"""The classical partitioned scale-out SPE shared by UpPar and Flink.

This is the architecture the paper argues *against* (Secs. 3.1, 8.2):
each node splits its threads into **partitioner** threads (read local
flows, filter/project, hash-partition every record to the consumer that
owns its key, copy it into a fan-out buffer, ship full buffers) and
**consumer** threads (poll inbound queues from *every* partitioner in
the cluster, apply the windowed operator on consumer-local state, and
trigger windows with classical per-channel watermarks).

RDMA UpPar instantiates this over Slash's RDMA channels ('lightweight
integration'); the Flink-like engine instantiates it over IPoIB socket
channels with managed-runtime and serialization costs ('plug-and-play').

The pathologies the paper measures all *emerge* here rather than being
scripted: partitioning burns most of the sender's cycles (front-end
bound), consumers spin on empty queues (core bound), skewed keys
overload one consumer and stall every partitioner on its credits, and
the fan-out buffers blow the sender's cache.

Fault tolerance (docs/fault_tolerance.md §8): workers are grouped into
a :class:`_Generation`.  Under a crash-capable fault plan the run
context hands a ``PartitionedChaosController`` (``faults/snapshots.py``)
the levers it needs — aligned snapshot rounds (partitioners flush,
record absolute input cursors, and send in-band markers; consumers
spill post-marker buffers until every input channel markered), and the
Flink-style **global restart**: on a quorum-backed fence the current
generation halts, a new generation over the survivors restores the last
complete snapshot (state re-bucketed to the new consumer count) and
replays every flow from its captured cursor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

import numpy as np

from repro.baselines.costs import ExchangeCosts
from repro.channel.channel import CHANNEL_EOS, LocalChannel, RdmaChannel
from repro.common.config import (
    ClusterConfig,
    DEFAULT_BUFFER_BYTES,
    DEFAULT_CREDITS,
    paper_cluster,
)
from repro.common.errors import ConfigError
from repro.core.engine import RunResult
from repro.core.executor import DoneToken, SnapshotMarker
from repro.core.system import SystemHooks, install_sanitizer
from repro.core.join import SessionTrigger, probe_window
from repro.core.pipeline import PhysicalPlan, compile_query
from repro.core.progress import WindowTriggerState
from repro.core.query import Query
from repro.core.records import RecordBatch
from repro.core.windows import SessionWindows, SlidingWindow
from repro.simnet.cluster import Cluster, Core, Node
from repro.simnet.counters import HwCounters
from repro.simnet.kernel import Simulator, Timeout
from repro.state.partition import stable_hash_array
from repro.workloads.base import Flow

MESSAGE_HEADER_BYTES = 48


@dataclass
class _Message:
    """One exchange buffer: a sub-batch plus the sender's watermark."""

    stream: str
    batch: RecordBatch
    watermark: float


@dataclass
class _FlowEntry:
    """One input flow as a generation's partitioner sees it.

    ``start`` is the absolute batch cursor to begin at: 0 in the first
    generation, the snapshot's captured cursor after a restart (the
    replay prefix ``0..start`` is covered by the restored state).
    """

    flow_id: int
    flow: Flow
    start: int = 0


class _PartitionerState:
    """Fan-out buffers and watermark bookkeeping of one partitioner."""

    def __init__(
        self,
        consumer_count: int,
        streams: tuple[str, ...],
        disorder_ms: Optional[dict[str, int]] = None,
    ):
        self.pending: list[dict[str, list[np.ndarray]]] = [
            {stream: [] for stream in streams} for _ in range(consumer_count)
        ]
        self.pending_rows = [0] * consumer_count
        self.stream_maxes = {stream: float("-inf") for stream in streams}
        self.disorder = {stream: 0 for stream in streams}
        if disorder_ms:
            self.disorder.update(disorder_ms)

    @property
    def watermark(self) -> float:
        return min(
            value - self.disorder[stream] if value != float("-inf") else value
            for stream, value in self.stream_maxes.items()
        )


class PartitionedEngine(SystemHooks):
    """Base class; subclasses choose the data plane and the cost surface."""

    name = "partitioned"

    #: Flush partially-filled fan-out buffers after this many input
    #: batches (the buffer-timeout/linger every exchange-based SPE needs
    #: so downstream windows make progress).  At high fan-out this is
    #: what floods the exchange with small messages.
    linger_batches = 4

    def __init__(
        self,
        costs: ExchangeCosts,
        cluster_config: Optional[ClusterConfig] = None,
        credits: int = DEFAULT_CREDITS,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    ):
        self.costs = costs
        self.cluster_config = cluster_config or paper_cluster()
        self.credits = credits
        self.buffer_bytes = buffer_bytes

    # -- data plane hook -----------------------------------------------------
    def _make_channel(self, ctx: "_RunContext", src: Node, dst: Node, name: str):
        """Return a channel (producer/consumer endpoint pair) src -> dst."""
        raise NotImplementedError

    def _serde_records(self, n: int) -> float:
        """How many per-record serde charges one exchange hop costs."""
        return 0.0

    def _fault_pipes(self, ctx: "_RunContext", node_index: int) -> list:
        """Extra bandwidth pipes a NIC flap on ``node_index`` must degrade
        (beyond the node's RDMA NIC pipes) — e.g. the IPoIB fabric's."""
        return []

    # -- attach hooks ----------------------------------------------------------
    def attach_faults(self, plan, overrides=None, strategy=None):
        self._reject_rescale_with_recovery(plan, self.elastic_plan)
        return super().attach_faults(plan, overrides, strategy)

    def attach_elastic(self, plan):
        self._reject_rescale_with_recovery(self.fault_plan, plan)
        return super().attach_elastic(plan)

    def _reject_rescale_with_recovery(self, fault_plan, elastic_plan) -> None:
        """Whichever plan attaches second fails here, before any simulation."""
        from repro.faults.injector import DATA_PLANE_KINDS

        if elastic_plan is not None and any(
            e.kind not in DATA_PLANE_KINDS for e in fault_plan or ()
        ):
            raise ConfigError(
                f"{self.name} cannot combine a live rescale with "
                "crash recovery: a global restart would rebuild the "
                "generation under the route table (data-plane fault "
                "plans are fine)"
            )

    # -- the run --------------------------------------------------------------
    def run(self, query: Query, flows: dict[tuple[int, int], Flow]) -> RunResult:
        query.validate()
        nodes = max(node for node, _ in flows) + 1
        threads = max(thread for _, thread in flows) + 1
        if threads < 2:
            raise ConfigError(
                f"{self.name} needs >= 2 threads per node (half partition, "
                f"half consume); got {threads}"
            )
        if nodes > self.cluster_config.nodes:
            raise ConfigError(f"flows span {nodes} nodes > cluster size")
        # A join rescale provisions spare nodes up front: their
        # partitioners have no flows and their consumers own no route
        # buckets until the coordinator moves some over.
        spares = self.elastic_plan.spare_nodes if self.elastic_plan else 0
        total_nodes = nodes + spares

        sim = Simulator()
        if self.sanitize:
            install_sanitizer(sim)
        cluster = Cluster(sim, self.cluster_config.with_nodes(total_nodes))

        injector = None
        recovery_plan = False
        if self.fault_plan is not None and len(self.fault_plan):
            from repro.faults.injector import DATA_PLANE_KINDS, FaultInjector

            recovery_plan = any(
                e.kind not in DATA_PLANE_KINDS for e in self.fault_plan
            )
            kwargs = dict(self.fault_overrides)
            if recovery_plan:
                # Partitioned engines recover via aligned snapshots +
                # global restart; epoch-buddy has no meaning here.
                kwargs.setdefault("strategy", self.recovery_strategy)
            injector = FaultInjector(sim, self.fault_plan, **kwargs)
            # Attaching before wiring flips the shared channel/RDMA layer
            # onto its fault-tolerant code path (ACK-tracked transfers,
            # credit timeouts), exactly as it does for Slash.
            sim.faults = injector

        plan = compile_query(query)
        ctx = _RunContext(self, sim, cluster, plan, total_nodes, threads)
        ctx.wire(flows)
        elastic = None
        if self.elastic_plan is not None:
            from repro.elastic.exchange import ElasticExchangeCoordinator

            elastic = ElasticExchangeCoordinator(
                ctx, self.elastic_plan, base_nodes=nodes
            )
            ctx.elastic = elastic
            elastic.install()
        if injector is not None:
            if recovery_plan:
                from repro.faults.snapshots import PartitionedChaosController

                controller = PartitionedChaosController(ctx)
                ctx.chaos = controller
                injector.register_partitioned(cluster, controller)
            else:
                from repro.faults.injector import FaultTarget

                injector.register_data_plane(
                    cluster,
                    [
                        FaultTarget(
                            node=cluster.node(node_index),
                            in_channels=ctx.inbound_endpoints(node_index),
                            extra_pipes=self._fault_pipes(ctx, node_index),
                        )
                        for node_index in range(total_nodes)
                    ],
                )
        ctx.start()
        if injector is not None:
            injector.arm()
        if elastic is not None:
            elastic.arm()
        sim.run()
        if elastic is not None:
            elastic.check_complete()
        result = ctx.collect(query)
        if injector is not None:
            result.extra["faults"] = injector.report()
        if elastic is not None:
            result.extra["elastic"] = elastic.report()
        if sim.sanitize is not None:
            result.extra["sanitizer_checks"] = sim.sanitize.check_counts()
        return result


class _Generation:
    """One deployment attempt: a worker set over a (sub)set of the nodes.

    The first generation spans every node; each global restart builds a
    successor over the survivors.  Halting a generation is cooperative —
    the kernel has no process kill — so ``halt`` raises flags the worker
    bodies poll, marks every exchange producer dead (sends blackhole,
    parked credit waits wake), and pokes parked consumers awake.
    """

    def __init__(self, ctx: "_RunContext", number: int, node_indexes: list[int]):
        self.ctx = ctx
        self.number = number
        self.nodes = list(node_indexes)
        self.partitioners_per_node = ctx.partitioners_per_node
        self.consumers_per_node = ctx.consumers_per_node
        self.partitioner_count = len(self.nodes) * self.partitioners_per_node
        self.consumer_count = len(self.nodes) * self.consumers_per_node
        self.partitioners: list[_Partitioner] = []
        self.consumers: list[_Consumer] = []
        self.channels: list[list[Any]] = []  # [partitioner_gid][consumer_gid]
        self.halted = False

    # -- topology (gids are generation-local) --------------------------------
    def partitioner_node(self, gid: int) -> int:
        return self.nodes[gid // self.partitioners_per_node]

    def partitioner_core(self, gid: int) -> Core:
        node = self.ctx.cluster.node(self.partitioner_node(gid))
        return node.core(gid % self.partitioners_per_node)

    def consumer_node(self, gid: int) -> int:
        return self.nodes[gid // self.consumers_per_node]

    def consumer_core(self, gid: int) -> Core:
        node = self.ctx.cluster.node(self.consumer_node(gid))
        return node.core(
            self.partitioners_per_node + gid % self.consumers_per_node
        )

    # -- lifecycle ------------------------------------------------------------
    def build(self, assignments: dict[int, list[_FlowEntry]]) -> None:
        ctx = self.ctx
        tag = "" if self.number == 0 else f"{self.number}"
        self.consumers = [
            _Consumer(ctx, self, gid, self.consumer_core(gid))
            for gid in range(self.consumer_count)
        ]
        for p_gid in range(self.partitioner_count):
            row = []
            src = ctx.cluster.node(self.partitioner_node(p_gid))
            for c_gid in range(self.consumer_count):
                dst = ctx.cluster.node(self.consumer_node(c_gid))
                channel = ctx.engine._make_channel(
                    ctx, src, dst, name=f"x{tag}:{p_gid}->{c_gid}"
                )
                row.append(channel)
                self.consumers[c_gid].attach(channel.consumer)
            self.channels.append(row)
        self.partitioners = [
            _Partitioner(ctx, self, gid, assignments.get(gid, []))
            for gid in range(self.partitioner_count)
        ]

    def start(self) -> None:
        prefix = "" if self.number == 0 else f"g{self.number}."
        for partitioner in self.partitioners:
            self.ctx.sim.process(
                partitioner.body(), name=f"{prefix}part{partitioner.gid}"
            )
        for consumer in self.consumers:
            self.ctx.sim.process(
                consumer.body(), name=f"{prefix}cons{consumer.gid}"
            )

    def halt(self) -> None:
        """Cooperatively stop every worker (the generation is discarded)."""
        self.halted = True
        for partitioner in self.partitioners:
            partitioner.halted = True
        self._mark_channels_dead(self.channels)
        for consumer in self.consumers:
            consumer.halted = True
            consumer.wake.put(None)

    def halt_node(self, node_index: int) -> None:
        """Stop the workers of one crashed node in place (pre-fence)."""
        for partitioner in self.partitioners:
            if partitioner.node.index == node_index:
                partitioner.halted = True
                self._mark_channels_dead(
                    [self.channels[partitioner.gid]]
                )
        for consumer in self.consumers:
            if consumer.node.index == node_index:
                consumer.halted = True
                consumer.wake.put(None)

    @staticmethod
    def _mark_channels_dead(rows: list[list[Any]]) -> None:
        for row in rows:
            for channel in row:
                mark_dead = getattr(channel.producer, "mark_dead", None)
                if mark_dead is not None:
                    mark_dead()


class _RunContext:
    """All mutable state of one partitioned-engine run."""

    def __init__(
        self,
        engine: PartitionedEngine,
        sim: Simulator,
        cluster: Cluster,
        plan: PhysicalPlan,
        nodes: int,
        threads: int,
    ):
        self.engine = engine
        self.sim = sim
        self.cluster = cluster
        self.plan = plan
        self.nodes = nodes
        self.threads = threads
        self.partitioners_per_node = threads // 2
        self.consumers_per_node = threads - self.partitioners_per_node
        self.streams = tuple(s.name for s in plan.query.streams)
        self.records_in = 0
        #: Every input flow in global order; the source of truth a
        #: restarted generation re-assigns work from.
        self._all_flows: list[tuple[int, Flow]] = []
        self.gen: _Generation = None  # set by wire()
        #: The PartitionedChaosController when the plan can crash nodes.
        self.chaos: Any = None
        #: The ElasticExchangeCoordinator when an ElasticPlan is
        #: attached (duck-typed here so this module never imports the
        #: elastic layer); ``None`` keeps the static hash routing.
        self.elastic: Any = None
        self.sender_counters = HwCounters()
        self.receiver_counters = HwCounters()

    # -- current-generation views --------------------------------------------
    @property
    def consumer_count(self) -> int:
        return self.gen.consumer_count

    @property
    def partitioner_count(self) -> int:
        return self.gen.partitioner_count

    def inbound_endpoints(self, node_index: int) -> list:
        """Consumer endpoints terminating on ``node_index`` (fault targets)."""
        return [
            endpoint
            for consumer in self.gen.consumers
            if consumer.node.index == node_index
            for endpoint in consumer.channels
        ]

    def wire(self, flows: dict[tuple[int, int], Flow]) -> None:
        """Assign flows to partitioners and build the exchange channels."""
        assignments: dict[int, list[_FlowEntry]] = {}
        for flow_id, ((node, thread), flow) in enumerate(sorted(flows.items())):
            gid = node * self.partitioners_per_node + thread % self.partitioners_per_node
            entry = _FlowEntry(flow_id, flow, 0)
            assignments.setdefault(gid, []).append(entry)
            self._all_flows.append((flow_id, flow))
            self.records_in += sum(len(batch) for _s, batch in flow)
        self.gen = _Generation(self, 0, list(range(self.nodes)))
        self.gen.build(assignments)

    def start(self) -> None:
        self.gen.start()

    # -- global restart (driven by the chaos controller) ----------------------
    def halt_node(self, node_index: int) -> None:
        self.gen.halt_node(node_index)

    def halt_generation(self) -> None:
        self.gen.halt()

    def restart_generation(self, survivors: list[int], restore: dict) -> dict:
        """Build, restore, and start the next generation over ``survivors``.

        ``restore`` is the chaos controller's bundle: per-flow absolute
        cursors and the merged consumer state of the last complete
        aligned snapshot round (empty cursors/state mean full replay
        from scratch).  Returns the replay volume for the report.
        """
        gen = _Generation(self, self.gen.number + 1, survivors)
        cursors = restore.get("cursors", {})
        assignments: dict[int, list[_FlowEntry]] = {}
        replayed_batches = 0
        replayed_records = 0
        for flow_id, flow in self._all_flows:
            gid = flow_id % gen.partitioner_count
            start = min(int(cursors.get(flow_id, 0)), len(flow))
            assignments.setdefault(gid, []).append(
                _FlowEntry(flow_id, flow, start)
            )
            replayed_batches += len(flow) - start
            replayed_records += sum(
                len(batch) for _s, batch in flow[start:]
            )
        gen.build(assignments)
        crdt = self.plan.crdt
        now = self.sim.now
        for key, payload in restore.get("state", {}).items():
            group_key = key[1] if isinstance(key, tuple) else key
            bucket = int(
                (
                    stable_hash_array(
                        np.asarray([int(group_key)], dtype=np.int64)
                    )
                    % np.uint64(gen.consumer_count)
                )[0]
            )
            consumer = gen.consumers[bucket]
            consumer.state[key] = payload
            consumer.state_bytes += 16 + crdt.payload_bytes
            if isinstance(key, tuple):
                consumer._last_contribution[key[0]] = now
                if consumer.trigger is not None:
                    consumer.trigger.note_slices([key[0]])
        self.gen = gen
        gen.start()
        return {
            "replayed_batches": replayed_batches,
            "replayed_records": replayed_records,
        }

    def collect(self, query: Query) -> RunResult:
        for consumer in self.gen.consumers:
            if not consumer.done:
                raise ConfigError(
                    f"consumer {consumer.gid} never finished — exchange deadlock?"
                )
        if self.chaos is not None:
            aggregates, joins, emitted = self.chaos.committed_base()
            aggregates = dict(aggregates)
            joins = list(joins)
        else:
            aggregates, joins, emitted = {}, [], 0
        for consumer in self.gen.consumers:
            aggregates.update(consumer.results_aggregates)
            joins.extend(consumer.results_joins)
            emitted += consumer.emitted
        result = RunResult(
            system=self.engine.name,
            query_name=query.name,
            nodes=self.nodes,
            threads_per_node=self.threads,
            input_records=self.records_in,
            sim_seconds=self.sim.now,
            aggregates=aggregates,
            join_pairs=joins,
            emitted=emitted,
        )
        for node_index in range(self.nodes):
            node = self.cluster.node(node_index)
            for slot in range(self.partitioners_per_node):
                self.sender_counters.merge(node.core(slot).counters)
            for slot in range(self.partitioners_per_node, self.threads):
                self.receiver_counters.merge(node.core(slot).counters)
            node_counters = node.counters()
            result.per_node_counters.append(node_counters)
            result.counters.merge(node_counters)
        lags = [lag for c in self.gen.consumers for lag in c.trigger_lag_s]
        result.extra["trigger_lag_mean_s"] = sum(lags) / len(lags) if lags else 0.0
        result.extra["trigger_lag_max_s"] = max(lags) if lags else 0.0
        result.extra["trigger_events"] = sorted(
            event for c in self.gen.consumers for event in c.trigger_events
        )
        result.extra["sender_counters"] = self.sender_counters
        result.extra["receiver_counters"] = self.receiver_counters
        if self.chaos is not None:
            result.extra["generations"] = self.chaos.generations_started
        return result


class _Partitioner:
    """One sender thread: filter, hash-partition, fan out."""

    def __init__(
        self, ctx: _RunContext, gen: _Generation, gid: int,
        entries: list[_FlowEntry],
    ):
        self.ctx = ctx
        self.gen = gen
        self.gid = gid
        self.core = gen.partitioner_core(gid)
        self.node = self.core.node
        self.entries = entries
        self.cursors = [entry.start for entry in entries]
        self.state = _PartitionerState(
            gen.consumer_count,
            ctx.streams,
            disorder_ms={s.name: s.disorder_ms for s in ctx.plan.query.streams},
        )
        self.fanout_working_set = gen.consumer_count * ctx.engine.buffer_bytes
        self.records_per_send = {
            s.name: max(
                1,
                (ctx.engine.buffer_bytes - 512 - MESSAGE_HEADER_BYTES)
                // s.schema.record_bytes,
            )
            for s in ctx.plan.query.streams
        }
        self.schema_by_stream = {s.name: s.schema for s in ctx.plan.query.streams}
        self.halted = False
        self.finished_body = False
        #: Round id the chaos controller wants a barrier for (aligned
        #: snapshot); consumed at the top of the batch loop.
        self.snapshot_request: Optional[int] = None
        #: Round id the elastic coordinator wants flushed + markered
        #: after a route flip; consumed at the top of the batch loop.
        self.reroute_request: Optional[int] = None

    def abs_cursors(self) -> dict[int, int]:
        """Absolute per-flow batch cursors (flow_id -> consumed batches)."""
        return {
            entry.flow_id: self.cursors[index]
            for index, entry in enumerate(self.entries)
        }

    def body(self) -> Generator[Any, Any, None]:
        ctx = self.ctx
        core = self.core
        # Round-robin over this partitioner's flows keeps watermarks moving.
        per_flow_streams = [
            {stream: float("-inf") for stream in ctx.streams} for _ in self.entries
        ]
        active = set(range(len(self.entries)))
        batches_done = 0
        while active:
            if self.halted:
                return
            if self.snapshot_request is not None:
                yield from self._snapshot_barrier()
            if self.reroute_request is not None:
                yield from self._reroute_flush()
            for flow_index in sorted(active):
                if self.halted:
                    return
                flow = self.entries[flow_index].flow
                if self.cursors[flow_index] >= len(flow):
                    active.discard(flow_index)
                    for stream in ctx.streams:
                        per_flow_streams[flow_index][stream] = float("inf")
                    self._refresh_watermark(per_flow_streams)
                    continue
                stream_name, batch = flow[self.cursors[flow_index]]
                self.cursors[flow_index] += 1
                yield from self._process_batch(
                    stream_name, batch, per_flow_streams[flow_index]
                )
                self._refresh_watermark(per_flow_streams)
                batches_done += 1
                if batches_done % ctx.engine.linger_batches == 0:
                    # Buffer timeout: push out partial buffers so consumers
                    # and their watermarks keep moving.
                    for c_gid in range(self.gen.consumer_count):
                        if self.state.pending_rows[c_gid]:
                            yield from self._flush(c_gid)
        if self.halted:
            return
        # Flush leftovers, then signal completion everywhere.
        for c_gid in range(self.gen.consumer_count):
            yield from self._flush(c_gid, force=True)
        for c_gid, channel in enumerate(self.gen.channels[self.gid]):
            yield from channel.producer.send(
                core, DoneToken(self.gid), MESSAGE_HEADER_BYTES
            )
            yield from channel.producer.close(core)
        self.finished_body = True
        if ctx.chaos is not None and not self.halted:
            # EOS is this partitioner's barrier for any outstanding round.
            ctx.chaos.note_partitioner_finished(self)

    def _snapshot_barrier(self) -> Generator[Any, Any, None]:
        """Aligned-snapshot barrier: flush, record cursors, marker out.

        The flush pushes every pre-barrier row onto the wire before the
        marker, so per-channel FIFO puts the marker exactly at the cut;
        the cursors are captured before any post-barrier batch is read,
        making (cursors, markers) one consistent frontier.
        """
        round_id = self.snapshot_request
        self.snapshot_request = None
        chaos = self.ctx.chaos
        if chaos is None or round_id is None:
            return
        for c_gid in range(self.gen.consumer_count):
            if self.state.pending_rows[c_gid]:
                yield from self._flush(c_gid)
        chaos.note_partitioner_capture(round_id, self, self.abs_cursors())
        marker = SnapshotMarker(
            round_id=round_id, from_executor=self.gid, boundary=0
        )
        for channel in self.gen.channels[self.gid]:
            yield from channel.producer.send(
                self.core, marker, MESSAGE_HEADER_BYTES
            )

    def _reroute_flush(self) -> Generator[Any, Any, None]:
        """Rescale cut: flush the fan-out buffers, marker every channel.

        Mirrors the snapshot barrier — the flush pushes every row routed
        before the coordinator's table flip onto the wire, then the
        marker rides behind them, so per-channel FIFO guarantees the old
        owner has merged all pre-flip records once its marker arrives.
        """
        round_id = self.reroute_request
        self.reroute_request = None
        elastic = self.ctx.elastic
        if elastic is None or round_id is None:
            return
        for c_gid in range(self.gen.consumer_count):
            if self.state.pending_rows[c_gid]:
                yield from self._flush(c_gid)
        marker = elastic.marker_for(round_id, self.gid)
        for channel in self.gen.channels[self.gid]:
            yield from channel.producer.send(
                self.core, marker, MESSAGE_HEADER_BYTES
            )

    def _refresh_watermark(self, per_flow_streams: list[dict[str, float]]) -> None:
        if not per_flow_streams:
            return
        for stream in self.ctx.streams:
            self.state.stream_maxes[stream] = min(
                flow_maxes[stream] for flow_maxes in per_flow_streams
            )

    def _process_batch(
        self, stream_name: str, batch: RecordBatch, flow_maxes: dict[str, float]
    ) -> Generator[Any, Any, None]:
        ctx = self.ctx
        core = self.core
        cost_model = self.node.cost_model
        costs = ctx.engine.costs
        # Read the batch and run the fused stateless prefix.
        yield from core.execute(
            cost_model.cache.streaming_cost(batch.wire_bytes), 1.0
        )
        chain = ctx.plan.pipeline_for(stream_name).chain
        if chain.op_count:
            yield from core.execute(
                cost_model.compute_cost(costs.pipeline), float(len(batch))
            )
        filtered = chain.apply(batch)
        flow_maxes[stream_name] = max(flow_maxes[stream_name], batch.max_timestamp)
        if len(filtered):
            # The expensive bit: per-record hash + route + fan-out copy.
            partition_cost = cost_model.op(
                costs.partition,
                float(self.fanout_working_set),
                costs.partition_lines_for(batch.schema.record_bytes),
            )
            yield from core.execute(partition_cost, float(len(filtered)))
            serde_n = ctx.engine._serde_records(len(filtered))
            if serde_n:
                yield from core.execute(cost_model.compute_cost(costs.serde), serde_n)
            core.counters.count_records(len(filtered))
            hashes = stable_hash_array(np.asarray(filtered.keys, dtype=np.int64))
            elastic = ctx.elastic
            if elastic is not None:
                # Elastic runs route through the coordinator's bucket
                # table (initialised hash-identical to the static path).
                buckets = (hashes % np.uint64(elastic.buckets)).astype(np.int64)
                consumer_ids = elastic.route[buckets]
            else:
                consumer_ids = (
                    hashes % np.uint64(self.gen.consumer_count)
                ).astype(np.int64)
            order = np.argsort(consumer_ids, kind="stable")
            sorted_ids = consumer_ids[order]
            boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [len(sorted_ids)]))
            for start, end in zip(starts, ends):
                c_gid = int(sorted_ids[start])
                rows = filtered.data[order[start:end]]
                self.state.pending[c_gid][stream_name].append(rows)
                self.state.pending_rows[c_gid] += len(rows)
                if self.state.pending_rows[c_gid] >= self.records_per_send[stream_name]:
                    yield from self._flush(c_gid)

    def _flush(self, c_gid: int, force: bool = False) -> Generator[Any, Any, None]:
        ctx = self.ctx
        core = self.core
        costs = ctx.engine.costs
        pending = self.state.pending[c_gid]
        if self.state.pending_rows[c_gid] == 0 and not force:
            return
        channel = self.gen.channels[self.gid][c_gid]
        watermark = self.state.watermark
        outgoing: list[tuple[str, RecordBatch]] = []
        for stream_name in ctx.streams:
            chunks = pending[stream_name]
            if not chunks:
                continue
            limit = self.records_per_send[stream_name]
            data = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
            pending[stream_name] = []
            schema = self.schema_by_stream[stream_name]
            for start in range(0, len(data), limit):
                rows = data[start:start + limit]
                outgoing.append((stream_name, RecordBatch(schema, rows)))
        # Only the flush's last buffer carries the fresh watermark: the
        # consumer applies a message's watermark on receipt, so stamping
        # it on an earlier buffer would advance the frontier past rows
        # of another stream still queued behind it on this channel.
        for position, (stream_name, batch) in enumerate(outgoing):
            last = position == len(outgoing) - 1
            message = _Message(
                stream_name, batch, watermark if last else float("-inf")
            )
            nbytes = batch.wire_bytes + MESSAGE_HEADER_BYTES
            yield from core.execute(
                self.node.cost_model.compute_cost(costs.per_buffer), 1.0
            )
            yield from channel.producer.send(core, message, nbytes)
        self.state.pending_rows[c_gid] = 0


class _Consumer:
    """One receiver thread: poll queues, update local state, trigger."""

    def __init__(self, ctx: _RunContext, gen: _Generation, gid: int, core: Core):
        self.ctx = ctx
        self.gen = gen
        self.gid = gid
        self.core = core
        self.node = core.node
        self.wake = ctx.sim.store(name=f"g{gen.number}.cons{gid}.wake")
        self.channels: list[Any] = []
        self.channel_wm: list[float] = []
        self.channel_done: list[bool] = []
        self.state: dict = {}
        self.state_bytes = 0.0
        self._last_contribution: dict = {}
        self.trigger_lag_s: list[float] = []
        #: (fire_time_s, lag_s) per fired window, for latency timelines.
        self.trigger_events: list[tuple[float, float]] = []
        # Per-consumer result sinks: a discarded generation's output dies
        # with it, the surviving generation's merges at collect().
        self.results_aggregates: dict = {}
        self.results_joins: list = []
        self.emitted = 0
        window = ctx.plan.window
        # Exactly one of the two: sessions have no static window ids.
        self.trigger = self.session_trigger = None
        if isinstance(window, SessionWindows):
            self.session_trigger = SessionTrigger(window)
        else:
            self.trigger = WindowTriggerState(window)
        self.halted = False
        self.done = False

    def attach(self, consumer_endpoint: Any) -> None:
        consumer_endpoint.notify_store = self.wake
        self.channels.append(consumer_endpoint)
        self.channel_wm.append(float("-inf"))
        self.channel_done.append(False)

    def body(self) -> Generator[Any, Any, None]:
        core = self.core
        chaos = self.ctx.chaos
        index_of = {id(channel): i for i, channel in enumerate(self.channels)}
        while not all(self.channel_done):
            if self.halted:
                return
            ok, channel = self.wake.try_get()
            if not ok:
                # All queues empty: spin (pause) until any channel signals.
                channel = yield from core.spin_wait(self.wake.get())
            if self.halted:
                return
            index = index_of.get(id(channel))
            if index is None:
                continue  # a halt/restart poke, not a channel signal
            progressed = False
            while True:
                if self.halted:
                    return
                ok, payload, _nbytes = channel.try_recv(core)
                if not ok:
                    break
                if self.ctx.elastic is not None and self.ctx.elastic.on_consumer_payload(
                    self, index, payload
                ):
                    yield from channel.release(core)
                    progressed = True
                    continue
                if chaos is not None:
                    verdict = chaos.on_consumer_payload(
                        self, index, channel, payload
                    )
                    if verdict == "marker":
                        yield from channel.release(core)
                        yield from chaos.maybe_capture(self)
                        continue
                    if verdict == "spill":
                        # Alignment backpressure: hold the credit until
                        # the capture replays this buffer.
                        continue
                progressed = True
                yield from self._handle(index, channel, payload)
                if chaos is not None:
                    yield from chaos.maybe_capture(self)
            if progressed:
                yield from self._check_triggers()
        # A live rescale may have this consumer's bucket state split
        # mid-flight; wait for the round to re-unite it before the final
        # sweep, or the drain assertion below would fire spuriously.
        while self.ctx.elastic is not None and self.ctx.elastic.holds_finish(
            self.gid
        ):
            yield Timeout(1e-4)
        yield from self._check_triggers()
        if chaos is not None:
            yield from chaos.maybe_capture(self)
        self._assert_drained()
        self.done = True

    def _handle(self, index: int, channel: Any, payload: Any) -> Generator[Any, Any, None]:
        core = self.core
        ctx = self.ctx
        costs = ctx.engine.costs
        if payload is CHANNEL_EOS:
            self.channel_done[index] = True
            self.channel_wm[index] = float("inf")
            yield from channel.release(core)
            return
        if isinstance(payload, DoneToken):
            self.channel_wm[index] = float("inf")
            yield from channel.release(core)
            return
        if isinstance(payload, SnapshotMarker):
            # A marker of an aborted round (the controller declined it):
            # barrier of nothing, just drop it.
            yield from channel.release(core)
            return
        if ctx.chaos is not None:
            ctx.chaos.note_consumer_merge(self, index)
        message: _Message = payload
        batch = message.batch
        pipeline = ctx.plan.pipeline_for(message.stream)
        cost_model = self.node.cost_model
        yield from core.execute(cost_model.compute_cost(costs.dequeue), float(len(batch)))
        serde_n = ctx.engine._serde_records(len(batch))
        if serde_n:
            yield from core.execute(cost_model.compute_cost(costs.serde), serde_n)
        result = pipeline.process_batch(batch)
        if result.survivors:
            profile = costs.append if ctx.plan.is_join else costs.update
            lines = costs.append_lines if ctx.plan.is_join else costs.update_lines
            working_set = max(4096.0, self.state_bytes)
            update_cost = cost_model.op(profile, working_set, lines)
            yield from core.execute(update_cost, float(result.survivors))
            core.counters.count_records(result.survivors)
            crdt = ctx.plan.crdt
            now = ctx.sim.now
            for key, partial in result.partials.items():
                if key in self.state:
                    self.state[key] = crdt.merge(self.state[key], partial)
                else:
                    self.state[key] = partial
                if isinstance(key, tuple):
                    self._last_contribution[key[0]] = now
            self.state_bytes += result.state_bytes
            if self.trigger is not None:
                self.trigger.note_slices(
                    key[0] for key in result.partials if isinstance(key, tuple)
                )
        if message.watermark > self.channel_wm[index]:
            self.channel_wm[index] = message.watermark
        yield from channel.release(core)

    # -- triggering ----------------------------------------------------------------
    def _frontier(self) -> float:
        return min(self.channel_wm) if self.channel_wm else float("inf")

    def _check_triggers(self) -> Generator[Any, Any, None]:
        ctx = self.ctx
        if ctx.elastic is not None and ctx.elastic.triggers_suppressed(self.gid):
            # A rescale round holds this consumer's bucket state split
            # across two owners; firing now would emit partial windows.
            return
        frontier = self._frontier()
        if self.session_trigger is not None:
            yield from self._trigger_sessions(frontier)
            return
        assert self.trigger is not None
        for window_id in self.trigger.due_windows(frontier):
            if ctx.plan.is_join:
                yield from self._fire_join(window_id)
            else:
                yield from self._fire_agg(window_id)

    def _fire_agg(self, window_id: int) -> Generator[Any, Any, None]:
        ctx = self.ctx
        crdt = ctx.plan.crdt
        window = ctx.plan.window
        if isinstance(window, SlidingWindow):
            merged: dict = {}
            for slice_id in window.slices_of_window(window_id):
                for (sid, key), payload in list(self.state.items()):
                    if sid == slice_id:
                        merged[key] = (
                            crdt.merge(merged[key], payload) if key in merged else payload
                        )
            for (sid, key) in [k for k in self.state if k[0] == window_id]:
                del self.state[(sid, key)]
            extracted = merged
        else:
            extracted = {
                key: self.state.pop((win, key))
                for win, key in [k for k in self.state if k[0] == window_id]
            }
        if not extracted:
            return
        last = self._last_contribution.pop(window_id, ctx.sim.now)
        self.trigger_lag_s.append(ctx.sim.now - last)
        self.trigger_events.append((ctx.sim.now, ctx.sim.now - last))
        emit_cost = self.node.cost_model.compute_cost(ctx.engine.costs.emit)
        yield from self.core.execute(emit_cost, float(len(extracted)))
        for key, payload in extracted.items():
            self.results_aggregates[(window_id, key)] = crdt.finish(payload)
        self.emitted += len(extracted)
        self.state_bytes = max(
            0.0, self.state_bytes - len(extracted) * (16 + crdt.payload_bytes)
        )

    def _fire_join(self, window_id: int) -> Generator[Any, Any, None]:
        ctx = self.ctx
        extracted = {
            key: self.state.pop((win, key))
            for win, key in [k for k in self.state if k[0] == window_id]
        }
        if extracted:
            last = self._last_contribution.pop(window_id, ctx.sim.now)
            self.trigger_lag_s.append(ctx.sim.now - last)
            self.trigger_events.append((ctx.sim.now, ctx.sim.now - last))
        produced = 0
        for key, payload in extracted.items():
            for left_row, right_row in probe_window(payload):
                self.results_joins.append((window_id, key, left_row, right_row))
                produced += 1
        if produced:
            probe_cost = self.node.cost_model.compute_cost(ctx.engine.costs.probe_pair)
            yield from self.core.execute(probe_cost, float(produced))
        self.emitted += produced

    def _trigger_sessions(self, frontier: float) -> Generator[Any, Any, None]:
        ctx = self.ctx
        assert self.session_trigger is not None
        produced = 0
        # A snapshot of the items: the rewrites below mutate ``self.state``.
        for key, emitted, remaining in self.session_trigger.fire(
            list(self.state.items()), frontier
        ):
            produced += len(emitted)
            for left_row, right_row in emitted:
                self.results_joins.append((key, left_row, right_row))
            if remaining:
                self.state[key] = remaining
            else:
                del self.state[key]
        if produced:
            probe_cost = self.node.cost_model.compute_cost(ctx.engine.costs.probe_pair)
            yield from self.core.execute(probe_cost, float(produced))
        self.emitted += produced

    def _assert_drained(self) -> None:
        if self.trigger is not None and self.trigger.pending:
            raise ConfigError(
                f"consumer {self.gid} finished with pending windows "
                f"{sorted(self.trigger.pending)[:5]}"
            )
