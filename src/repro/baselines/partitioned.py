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

Barriers and restarts (docs/fault_tolerance.md §8): workers are grouped
into a :class:`_Generation`, and the run context offers one aligned
:class:`_Barrier` round at a time — partitioners flush and send one
in-band marker on every channel, consumers spill a markered channel's
buffers until every input is markered or closed.  The two planes that
need a consistent cut submit rounds through it: the
``PartitionedChaosController`` (``faults/snapshots.py``) captures input
cursors and consumer state, then on a quorum-backed fence runs the
Flink-style **global restart** — the current generation halts, a new
generation restores the last complete capture (state re-bucketed to the
new consumer count) and replays every flow from its captured cursor; the
``ElasticExchangeCoordinator`` (``elastic/exchange.py``) flips routes and
moves bucket state behind a round.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
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
from repro.common.errors import ConfigError, StateError
from repro.core.engine import RunResult
from repro.core.executor import DoneToken, SnapshotMarker
from repro.core.fire import (
    ExecutorResults,
    fire_aggregate,
    fire_join,
    fire_sessions,
    trigger_metrics,
)
from repro.core.system import SystemHooks, install_sanitizer
from repro.core.join import SessionTrigger
from repro.core.pipeline import PhysicalPlan, compile_query
from repro.core.progress import WindowTriggerState
from repro.core.query import Query
from repro.core.records import RecordBatch
from repro.core.windows import SessionWindows
from repro.simnet.cluster import Cluster, Core, Node
from repro.simnet.counters import HwCounters
from repro.simnet.kernel import Signal, Simulator
from repro.state.lss import LogStructuredStore
from repro.state.partition import stable_hash_array
from repro.state.ssb import state_keys
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
    def _make_transport(self, ctx: "_RunContext") -> Any:
        """The transport this run's channels share, kept on the run context."""
        raise NotImplementedError

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
        if self.fault_plan is not None and len(self.fault_plan):
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(sim, self.fault_plan, **self.fault_overrides)
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
            from repro.faults.injector import DATA_PLANE_KINDS, FaultTarget

            if any(e.kind not in DATA_PLANE_KINDS for e in self.fault_plan):
                # Aligned snapshots + global restart: the only recovery
                # a partitioned engine has.
                from repro.faults.snapshots import PartitionedChaosController

                ctx.chaos = PartitionedChaosController(injector, ctx)
            injector.register(
                cluster,
                [
                    FaultTarget(
                        node=cluster.node(node_index),
                        in_channels=lambda i=node_index: ctx.inbound_endpoints(i),
                        extra_pipes=self._fault_pipes(ctx, node_index),
                    )
                    for node_index in range(total_nodes)
                ],
                ctx.chaos,
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
        ctx.close()
        sim.close()
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
            if partitioner.node_index == node_index:
                partitioner.halted = True
                self._mark_channels_dead(
                    [self.channels[partitioner.gid]]
                )
        for consumer in self.consumers:
            if consumer.node_index == node_index:
                consumer.halted = True
                consumer.wake.put(None)

    @staticmethod
    def _mark_channels_dead(rows: list[list[Any]]) -> None:
        for row in rows:
            for channel in row:
                mark_dead = getattr(channel.producer, "mark_dead", None)
                if mark_dead is not None:
                    mark_dead()


def _no_op(_worker: Any) -> None:
    return None


class _Barrier:
    """One aligned barrier round over a generation's exchange channels.

    The partitioned engine's one consistency primitive.  Every live
    partitioner flushes its fan-out buffers and sends one
    :class:`SnapshotMarker` on every channel (``on_cut`` runs between the
    two; finishing counts as the cut).  A consumer spills the buffers of
    a markered channel until every input is markered or closed — it is
    then *aligned*: ``on_aligned`` runs and the spill replays.  ``done``
    fires ``True`` when the last partitioner has cut and the last
    consumer is aligned, ``False`` if the round is aborted.  The round
    stays outstanding (``_RunContext.barrier``) until its owner ends it,
    so rounds never overlap.
    """

    def __init__(
        self,
        ctx: "_RunContext",
        round_id: int,
        on_cut: Callable[[Any], None],
        on_aligned: Callable[[Any], None],
    ):
        self.ctx = ctx
        self.id = round_id
        self.gen = ctx.gen
        self.on_cut = on_cut
        self.on_aligned = on_aligned
        self.done = Signal(name=f"barrier{round_id}.done")
        self.failed = False
        self.pending_partitioners: set[int] = set()
        self.pending_consumers: set[int] = set()
        #: consumer gid -> input-channel indexes whose marker arrived.
        self.markered: dict[int, set[int]] = {}
        #: consumer gid -> [(index, channel, message)] spilled post-marker.
        self.spills: dict[int, list] = {}
        #: Invariant counter: data merged on a markered channel before the
        #: consumer aligned (must stay 0 — the cut would be inconsistent).
        self.post_marker_merges = 0

    def cut(self, partitioner: "_Partitioner", round_id: Optional[int] = None) -> None:
        """``partitioner`` flushed ahead of its ``round_id`` markers, or
        finished (``round_id`` None): every row it routed so far precedes
        the cut on its channels."""
        if round_id not in (None, self.id):
            return  # the stale request of an aborted round
        if partitioner.gid not in self.pending_partitioners:
            return
        self.pending_partitioners.discard(partitioner.gid)
        self.on_cut(partitioner)
        self._maybe_complete()

    def note_marker(self, consumer: "_Consumer", index: int, marker: SnapshotMarker) -> None:
        if marker.round_id == self.id and consumer.gid in self.pending_consumers:
            self.markered[consumer.gid].add(index)

    def spill(self, consumer: "_Consumer", index: int, channel: Any, payload: Any) -> bool:
        """Hold a post-marker buffer until ``consumer`` aligns.

        The spilled buffer keeps its channel credit — Flink's aligned-
        checkpoint backpressure.  Deadlock-free: a partitioner's marker
        precedes its own post-marker data, so the channels the consumer
        still waits on keep draining.
        """
        if (
            consumer.gid not in self.pending_consumers
            or index not in self.markered[consumer.gid]
            or payload is CHANNEL_EOS
            or isinstance(payload, DoneToken)
        ):
            return False
        self.spills.setdefault(consumer.gid, []).append((index, channel, payload))
        self.ctx.barrier_stats["snapshot_deltas_spilled"] += 1
        return True

    def note_merge(self, consumer: "_Consumer", index: int) -> None:
        """Invariant probe: a data buffer is about to merge at ``consumer``."""
        if (
            consumer.gid in self.pending_consumers
            and index in self.markered[consumer.gid]
        ):
            self.post_marker_merges += 1

    def align(self, consumer: "_Consumer") -> Generator[Any, Any, None]:
        """Align ``consumer`` once every input is markered or closed, then
        replay its spill through its own handler (normal costs)."""
        if consumer.gid not in self.pending_consumers or consumer.generation != self.gen.number:
            return
        markered = self.markered[consumer.gid]
        for position, closed in enumerate(consumer.channel_done):
            if not closed and position not in markered:
                return
        self.pending_consumers.discard(consumer.gid)
        self.on_aligned(consumer)
        for index, channel, message in self.spills.pop(consumer.gid, []):
            yield from consumer._handle(index, channel, message)
        self._maybe_complete()

    def _maybe_complete(self) -> None:
        # A consumer still replaying its spill re-checks after the round
        # completed (or was aborted): fire once.
        if self.done.fired or self.pending_partitioners or self.pending_consumers:
            return
        sanitizer = self.ctx.sim.sanitize
        if sanitizer is not None:
            sanitizer.note_aligned_round(
                round_id=self.id,
                captures=self.gen.consumer_count,
                post_marker_merges=self.post_marker_merges,
            )
        self.done.fire(True)


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
        self.transport = engine._make_transport(self)
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
        #: The outstanding barrier round, if any (one at a time).
        self.barrier: Optional[_Barrier] = None
        self._next_barrier = 0
        #: Marker and spill counts; the chaos controller points this at
        #: the fault report's stats.
        self.barrier_stats: dict = Counter()
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
            if consumer.node_index == node_index
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

    def close(self) -> None:
        """Let go of the generation and the planes once the result is
        built: the workers, the planes and a barrier all point back here."""
        self.gen = self.chaos = self.elastic = self.barrier = None

    # -- barrier rounds (submitted by the chaos and elastic planes) -----------
    def start_barrier(
        self,
        on_cut: Callable[[Any], None] = _no_op,
        on_aligned: Callable[[Any], None] = _no_op,
    ) -> _Barrier:
        """Open a barrier round over the current generation.

        A partitioner that already finished has cut and a consumer that
        already finished is aligned, so their callbacks run here.  The
        caller ends the round with :meth:`end_barrier`.
        """
        if self.barrier is not None:
            raise StateError(
                f"barrier round {self.barrier.id} is still outstanding"
            )
        barrier = _Barrier(self, self._next_barrier, on_cut, on_aligned)
        self._next_barrier += 1
        self.barrier = barrier
        for partitioner in self.gen.partitioners:
            if partitioner.finished_body:
                on_cut(partitioner)
            else:
                barrier.pending_partitioners.add(partitioner.gid)
                partitioner.barrier_request = barrier.id
        for consumer in self.gen.consumers:
            if consumer.done:
                on_aligned(consumer)
            else:
                barrier.pending_consumers.add(consumer.gid)
                barrier.markered[consumer.gid] = set()
        barrier._maybe_complete()
        return barrier

    def end_barrier(self, barrier: _Barrier) -> None:
        if self.barrier is barrier:
            self.barrier = None

    def abort_barrier(self) -> None:
        """A crash or fence kills the outstanding round, whoever owns it.

        Its spills die with the generation: a restart always follows.
        """
        barrier, self.barrier = self.barrier, None
        if barrier is not None:
            barrier.failed = True
            if not barrier.done.fired:
                barrier.done.fire(False)

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
        from scratch).  A restart ends a live rescale: the elastic plane
        picks the nodes and resets its route table.  Returns the replay
        volume for the report.
        """
        if self.elastic is not None:
            survivors = self.elastic.end_by_restart(survivors)
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
        state = restore.get("state", {})
        group_keys = [key[1] if isinstance(key, tuple) else key for key in state]
        buckets = stable_hash_array(
            np.asarray(group_keys, dtype=np.int64)
        ) % np.uint64(gen.consumer_count)
        for (key, payload), bucket in zip(state.items(), buckets.tolist()):
            consumer = gen.consumers[bucket]
            consumer.state.replace(key, payload)
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
            consumer.assert_drained()
        if self.chaos is not None:
            aggregates, joins, emitted = self.chaos.committed_base()
            aggregates = dict(aggregates)
            joins = list(joins)
        else:
            aggregates, joins, emitted = {}, [], 0
        for consumer in self.gen.consumers:
            aggregates.update(consumer.results.aggregates)
            joins.extend(consumer.results.join_pairs)
            emitted += consumer.results.emitted
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
        result.extra.update(trigger_metrics(c.results for c in self.gen.consumers))
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
        self.gid = gid
        self.core = gen.partitioner_core(gid)
        self.node_index = self.core.node_index
        #: This partitioner's row of the generation's channels and its
        #: width (a worker holds no reference to its generation).
        self.channels = gen.channels[gid]
        self.consumer_count = gen.consumer_count
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
        #: Id of the barrier round this partitioner owes a cut; consumed
        #: at the top of the batch loop.
        self.barrier_request: Optional[int] = None

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
            if self.barrier_request is not None:
                yield from self._barrier()
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
                    for c_gid in range(self.consumer_count):
                        if self.state.pending_rows[c_gid]:
                            yield from self._flush(c_gid)
        if self.halted:
            return
        # Flush leftovers, then signal completion everywhere.
        for c_gid in range(self.consumer_count):
            yield from self._flush(c_gid, force=True)
        for channel in self.channels:
            yield from channel.producer.send(
                core, DoneToken(self.gid), MESSAGE_HEADER_BYTES
            )
            yield from channel.producer.close(core)
        self.finished_body = True
        if ctx.barrier is not None and not self.halted:
            # EOS is this partitioner's cut for the outstanding round.
            ctx.barrier.cut(self)

    def _barrier(self) -> Generator[Any, Any, None]:
        """Barrier cut: flush, note the cut, marker out.

        The flush pushes every row routed before the cut onto the wire
        ahead of the marker, so per-channel FIFO puts the marker exactly
        at the cut: a capture round records the cursors before any
        post-cut batch is read, and a reroute round knows every row the
        old route table sent precedes the marker.
        """
        round_id, self.barrier_request = self.barrier_request, None
        for c_gid in range(self.consumer_count):
            if self.state.pending_rows[c_gid]:
                yield from self._flush(c_gid)
        if self.ctx.barrier is not None:
            self.ctx.barrier.cut(self, round_id)
        marker = SnapshotMarker(
            round_id=round_id, from_executor=self.gid, boundary=0
        )
        for channel in self.channels:
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
        cost_model = core.cost_model
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
                    hashes % np.uint64(self.consumer_count)
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
        channel = self.channels[c_gid]
        watermark = self.state.watermark
        outgoing: list[tuple[str, RecordBatch]] = []
        for stream_name in ctx.streams:
            chunks = pending[stream_name]
            if not chunks:
                continue
            limit = self.records_per_send[stream_name]
            schema = self.schema_by_stream[stream_name]
            # Chunks of one schema: naming the dtype skips field promotion.
            data = (
                np.concatenate(chunks, dtype=schema.dtype)
                if len(chunks) > 1 else chunks[0]
            )
            pending[stream_name] = []
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
                core.cost_model.compute_cost(costs.per_buffer), 1.0
            )
            yield from channel.producer.send(core, message, nbytes)
        self.state.pending_rows[c_gid] = 0


class _Consumer:
    """One receiver thread: poll queues, update local state, trigger."""

    def __init__(self, ctx: _RunContext, gen: _Generation, gid: int, core: Core):
        self.ctx = ctx
        self.generation = gen.number
        self.gid = gid
        self.core = core
        self.node_index = core.node_index
        self.wake = ctx.sim.store(name=f"g{gen.number}.cons{gid}.wake")
        self.channels: list[Any] = []
        self.channel_wm: list[float] = []
        self.channel_done: list[bool] = []
        self.state = LogStructuredStore(ctx.plan.crdt, name=f"g{gen.number}.cons{gid}")
        #: Running working-set estimate that prices the state update.
        self.state_bytes = 0.0
        self._last_contribution: dict = {}
        # A discarded generation's output dies with it, the surviving
        # generation's merges at collect().
        self.results = ExecutorResults()
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
        # An arrival wakes the consumer with the channel's index.
        consumer_endpoint.notify_on_arrival(self.wake, len(self.channels))
        self.channels.append(consumer_endpoint)
        self.channel_wm.append(float("-inf"))
        self.channel_done.append(False)

    def body(self) -> Generator[Any, Any, None]:
        core = self.core
        ctx = self.ctx
        while not all(self.channel_done):
            if self.halted:
                return
            ok, index = self.wake.try_get()
            if not ok:
                # All queues empty: spin (pause) until any channel signals.
                index = yield from core.spin_wait(self.wake.get())
            if self.halted:
                return
            if index is None:
                continue  # a halt/restart poke, not a channel signal
            channel = self.channels[index]
            progressed = False
            while True:
                if self.halted:
                    return
                ok, payload, _nbytes = channel.try_recv(core)
                if not ok:
                    break
                if isinstance(payload, SnapshotMarker):
                    ctx.barrier_stats["snapshot_markers_seen"] += 1
                    if ctx.barrier is not None:
                        ctx.barrier.note_marker(self, index, payload)
                    yield from channel.release(core)
                    if ctx.barrier is not None:
                        yield from ctx.barrier.align(self)
                    continue
                if ctx.barrier is not None and ctx.barrier.spill(
                    self, index, channel, payload
                ):
                    continue
                progressed = True
                yield from self._handle(index, channel, payload)
                if ctx.barrier is not None:
                    yield from ctx.barrier.align(self)
            if progressed:
                yield from self._check_triggers()
        yield from self._check_triggers()
        if ctx.barrier is not None:
            yield from ctx.barrier.align(self)
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
        if ctx.barrier is not None:
            ctx.barrier.note_merge(self, index)
        message: _Message = payload
        batch = message.batch
        pipeline = ctx.plan.pipeline_for(message.stream)
        cost_model = core.cost_model
        yield from core.execute(cost_model.compute_cost(costs.dequeue), float(len(batch)))
        serde_n = ctx.engine._serde_records(len(batch))
        if serde_n:
            yield from core.execute(cost_model.compute_cost(costs.serde), serde_n)
        # The partitioner ran the chain, which is filters only: the rows
        # that arrive are its survivors, so only the reduction is left.
        result = pipeline.reduce(batch, batch.max_timestamp)
        if result.survivors:
            profile = costs.append if ctx.plan.is_join else costs.update
            lines = costs.append_lines if ctx.plan.is_join else costs.update_lines
            working_set = max(4096.0, self.state_bytes)
            update_cost = cost_model.op(profile, working_set, lines)
            yield from core.execute(update_cost, float(result.survivors))
            core.counters.count_records(result.survivors)
            windows = result.group_windows
            self.state.absorb_columns(
                state_keys(windows, result.group_keys), windows, result.group_partials
            )
            self.state_bytes += result.state_bytes
            if windows is not None:
                touched = np.unique(windows).tolist()
                self._last_contribution.update(dict.fromkeys(touched, ctx.sim.now))
                if self.trigger is not None:
                    self.trigger.note_slices(touched)
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
        probe = partial(self._charge, ctx.engine.costs.probe_pair)
        if self.session_trigger is not None:
            yield from fire_sessions(
                self.state, self.session_trigger, frontier, self.results, probe
            )
            return
        assert self.trigger is not None
        for window_id in self.trigger.due_windows(frontier):
            if ctx.plan.is_join:
                yield from fire_join(
                    self.state, window_id, ctx.sim.now, self.results,
                    self._last_contribution, probe,
                )
                continue
            fired = yield from fire_aggregate(
                (self.state,), ctx.plan, window_id, ctx.sim.now, self.results,
                self._last_contribution, partial(self._charge, ctx.engine.costs.emit),
            )
            self.state_bytes = max(
                0.0, self.state_bytes - fired * (16 + ctx.plan.crdt.payload_bytes)
            )

    def _charge(self, profile: Any, count: int, _folded: int = 0) -> Generator[Any, Any, None]:
        """Spend ``count`` results' worth of ``profile`` on this core."""
        yield from self.core.execute(self.core.cost_model.compute_cost(profile), float(count))

    def assert_drained(self) -> None:
        if self.trigger is not None and self.trigger.pending:
            raise ConfigError(
                f"consumer {self.gid} finished with pending windows "
                f"{sorted(self.trigger.pending)[:5]}"
            )
