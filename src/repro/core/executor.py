"""The distributed Slash stateful executor (paper Secs. 4-5, 7).

One :class:`SlashExecutor` runs per node.  Its moving parts:

* **worker threads** (one per pinned core) that consume their node-local
  physical data flows, run the fused pipeline over each batch, and absorb
  the resulting per-group partials into the Slash State Backend — the
  *eager* half of late merge.  No re-partitioning happens anywhere;
* a **shipper coroutine** on thread 0 that, at every epoch boundary,
  sends the fragments' deltas to their leader executors over dedicated
  RDMA channels (chunked to the channel buffer size, watermark
  piggybacked) — the *lazy* half;
* one **merge coroutine** per remote executor, also on thread 0's
  coroutine scheduler, that receives delta chunks, folds them into the
  primary partitions, advances the vector clock, and fires due windows.

Workers, shipper, and mergers all run on the same simulated cores, so
epoch synchronisation genuinely competes with (and hides behind) query
processing, as in the paper.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Any, Generator, Hashable, Iterable, Optional, Sequence

import numpy as np

from repro.channel.channel import CHANNEL_EOS, POLL_COST, RdmaChannel
from repro.common.config import (
    DEFAULT_BUFFER_BYTES,
    DEFAULT_CREDITS,
    DEFAULT_EPOCH_BYTES,
)
from repro.common.errors import ChannelResetError, QueryError, SimulationError
from repro.core.costs import DEFAULT_SLASH_COSTS, SlashCosts, quantize_working_set
from repro.core.fire import ExecutorResults, fire_aggregate, fire_join, fire_sessions
from repro.core.join import SessionTrigger
from repro.core.pipeline import PhysicalPlan
from repro.core.progress import WindowTriggerState
from repro.core.records import RecordBatch
from repro.core.scheduler import SCHED_YIELD, CoroScheduler, park
from repro.core.windows import SessionWindows
from repro.rdma.connection import ConnectionManager
from repro.simnet.cluster import Cluster, Core, Node
from repro.simnet.kernel import Signal, Timeout
from repro.simnet.trace import trace
from repro.state.epoch import EpochDelta, EpochManager
from repro.state.lss import distinct_windows, window_column
from repro.state.partition import Handoff, PartitionDirectory
from repro.state.ssb import SlashStateBackend

#: A physical data flow: (stream_name, batch) items in event-time order.
Flow = list[tuple[str, RecordBatch]]

# Serialized overhead per delta chunk message.
CHUNK_HEADER_BYTES = 48


@dataclass(frozen=True, eq=False)
class DeltaChunk:
    """One channel message carrying (part of) an epoch delta.

    ``keys`` / ``key_windows`` / ``payloads`` are one slice of each of
    the delta's columns (:class:`~repro.state.epoch.EpochDelta`).
    ``ingest_times`` piggybacks, per window id in this delta, the
    simulated time the helper last ingested a record contributing to it
    — the reference point for the trigger-lag metric.
    """

    operator_id: str
    partition: int
    from_executor: int
    epoch: int
    keys: Sequence[Hashable]
    key_windows: np.ndarray
    payloads: np.ndarray
    nbytes: int
    watermark: float
    last: bool
    ingest_times: tuple = ()
    #: On the last chunk, the delta's distinct window ids.
    windows: tuple = ()


def assemble(chunks: Sequence[DeltaChunk]) -> EpochDelta:
    """The delta a chunk sequence carries: its columns concatenated.

    ``nbytes`` is the last chunk's (what the merge-side trace and cost
    read), ``windows`` the delta's distinct window ids the last chunk
    carries.
    """
    last = chunks[-1]
    if len(chunks) == 1:
        keys, key_windows, payloads = last.keys, last.key_windows, last.payloads
    else:
        keys = list(chain.from_iterable(chunk.keys for chunk in chunks))
        key_windows = np.concatenate([chunk.key_windows for chunk in chunks])
        payloads = np.concatenate([chunk.payloads for chunk in chunks])
    return EpochDelta(
        operator_id=last.operator_id,
        partition=last.partition,
        from_executor=last.from_executor,
        epoch=last.epoch,
        keys=keys,
        key_windows=key_windows,
        payloads=payloads,
        nbytes=last.nbytes,
        watermark=last.watermark,
        windows=last.windows,
    )


@dataclass(frozen=True)
class DoneToken:
    """Final control message: the sender has finished all processing."""

    from_executor: int


@dataclass(frozen=True)
class SnapshotMarker:
    """In-band Chandy-Lamport barrier (the async-snapshot strategy).

    Travels through a channel like data, immediately after every delta
    of the sender's capture boundary: the receiver treats deltas before
    it as part of the consistent cut (in-flight channel state) and
    deltas after it as post-snapshot, to be aligned/spilled if the
    receiver has not captured yet.  ``boundary`` is the sender's capture
    boundary (``epochs_shipped - 1`` at its capture instant).
    """

    round_id: int
    from_executor: int
    boundary: int


class FlowWatermarks:
    """Low-watermark over a worker's flows and input streams.

    Timestamps are monotone *per stream within a flow* up to each
    stream's declared bounded disorder.  The safe low watermark is the
    minimum, over all unfinished flows and over every stream of the
    query, of that stream's maximum observed timestamp minus its
    disorder bound (a bounded-out-of-orderness watermark; the paper's
    strictly-monotone data model is the ``disorder = 0`` special case).
    A join flow interleaves two streams whose batches overlap in event
    time, which is the other reason for the per-stream minimum.
    Finished flows drop out of the minimum (their contribution becomes
    +inf).
    """

    def __init__(
        self,
        flow_count: int,
        stream_names: Iterable[str],
        disorder_ms: Optional[dict[str, int]] = None,
    ):
        names = tuple(stream_names)
        self._disorder = {name: 0 for name in names}
        if disorder_ms:
            self._disorder.update(disorder_ms)
        self._maxes = [{name: float("-inf") for name in names} for _ in range(flow_count)]
        self._finished = [False] * flow_count

    def observe(self, flow_index: int, stream: str, max_timestamp: float) -> None:
        maxes = self._maxes[flow_index]
        if max_timestamp > maxes[stream]:
            maxes[stream] = max_timestamp

    def finish(self, flow_index: int) -> None:
        self._finished[flow_index] = True

    @property
    def watermark(self) -> float:
        live = [
            min(
                maxes[name] - self._disorder[name] if maxes[name] != float("-inf")
                else float("-inf")
                for name in maxes
            )
            for maxes, done in zip(self._maxes, self._finished)
            if not done
        ]
        return min(live) if live else float("inf")


class SlashExecutor:
    """One Slash process: workers + shipper + mergers on one node."""

    def __init__(
        self,
        cluster: Cluster,
        cm: ConnectionManager,
        directory: PartitionDirectory,
        node: Node,
        executor_id: int,
        plan: PhysicalPlan,
        flows: list[Flow],
        costs: SlashCosts = DEFAULT_SLASH_COSTS,
        credits: int = DEFAULT_CREDITS,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        epoch_bytes: int = DEFAULT_EPOCH_BYTES,
    ):
        if len(flows) > len(node.cores):
            raise QueryError(
                f"{len(flows)} flows exceed the {len(node.cores)} cores of node "
                f"{node.index}"
            )
        self.cluster = cluster
        self.cm = cm
        self.directory = directory
        self.node = node
        self.executor_id = executor_id
        self.plan = plan
        self.flows = flows
        self.costs = costs
        self.credits = credits
        self.buffer_bytes = buffer_bytes
        self.sim = cluster.sim

        self.backend = SlashStateBackend(
            executor_id, directory, sanitizer=self.sim.sanitize
        )
        self.handle = self.backend.handle(plan.operator_id, plan.crdt)
        self.epoch = EpochManager(epoch_bytes)
        # Exactly one of the two: sessions have no static window ids.
        self.trigger = self.session_trigger = None
        if isinstance(plan.window, SessionWindows):
            self.session_trigger = SessionTrigger(plan.window)
        else:
            self.trigger = WindowTriggerState(plan.window)
        self.watermarks = FlowWatermarks(
            len(flows),
            (stream.name for stream in plan.query.streams),
            disorder_ms={s.name: s.disorder_ms for s in plan.query.streams},
        )
        self.results = ExecutorResults()
        self.records_processed = 0
        # Batches fully absorbed per flow; snapshotted at every epoch
        # boundary (fault mode), which is what lets recovery replay a
        # crashed executor's input from its last checkpointed cut.
        self._flow_pos = [0] * len(flows)
        self._last_contribution: dict = {}
        self._ws_bytes = 0.0  # running working-set estimate for the cache model
        self._out_channels: dict[int, Any] = {}
        self._in_channels: dict[int, Any] = {}
        self._pending_parts: dict[tuple, list] = {}
        self._done_peers: set[int] = set()
        self._workers_remaining = len(flows)
        self._mergers_remaining = 0
        self._finalized = False
        self.finished = Signal(name=f"exec{executor_id}.finished")
        # One coroutine scheduler per worker thread; RDMA channels are
        # assigned to worker threads round-robin (paper Sec. 5.3), so
        # delta reception/merging is interleaved with processing on
        # every core, not funnelled through one.
        thread_count = max(1, len(flows))
        self.schedulers = [
            CoroScheduler(node.core(t), name=f"exec{executor_id}.sched{t}")
            for t in range(thread_count)
        ]
        # Each worker thread ships the deltas of the out-channels it owns.
        self._ship_inboxes = [
            self.sim.store(name=f"exec{executor_id}.ship{t}")
            for t in range(thread_count)
        ]
        self._shippers_remaining = thread_count

    # -- wiring ----------------------------------------------------------
    def connect(self, executors: list["SlashExecutor"]) -> None:
        """Create the state-synchronisation channels to every peer.

        The paper's setup phase creates ``n^2`` RDMA channels overall
        (Sec. 7.2.2); here each ordered pair gets one.  Only shipper and
        merge coroutines drive them, so both ends park when blocked.
        """
        for peer in executors:
            if peer.executor_id == self.executor_id:
                continue
            channel = RdmaChannel.create(
                self.cm,
                self.node.index,
                peer.node.index,
                credits=self.credits,
                buffer_bytes=self.buffer_bytes,
                name=f"ssb:{self.executor_id}->{peer.executor_id}",
                wait=park,
            )
            self._out_channels[peer.executor_id] = channel.producer
            peer._in_channels[self.executor_id] = channel.consumer

    def start(self) -> None:
        """Launch all simulation processes of this executor."""
        self._mergers_remaining = len(self._in_channels)
        thread_count = len(self.schedulers)
        for slot, (peer_id, consumer) in enumerate(sorted(self._in_channels.items())):
            scheduler = self.schedulers[slot % thread_count]
            scheduler.add(
                self._merge_task(scheduler.core, consumer, peer_id),
                name=f"merge<-{peer_id}",
            )
        if self.sim.faults is not None:
            self.schedulers[0].add(
                self._watchdog_body(self.schedulers[0].core), name="watchdog"
            )
        for thread, scheduler in enumerate(self.schedulers):
            scheduler.add(self._ship_task(thread, scheduler.core), name=f"shipper{thread}")
        for thread in range(len(self.flows)):
            core = self.node.core(thread)
            self.schedulers[thread].add(
                self._worker_body(thread, core), name=f"worker{thread}"
            )
        for thread, scheduler in enumerate(self.schedulers):
            self.sim.process(
                scheduler.run(), name=f"exec{self.executor_id}.sched{thread}"
            )
        if not self.flows:
            self._workers_remaining = 0
            # A flow-less executor (an elastic spare, or a pure state
            # node) will never contribute a record: its own watermark is
            # +inf immediately, so partitions migrated onto it can still
            # reach the trigger frontier.
            self.backend.observe_watermark(float("inf"))
            self.epoch.force()
            self._enqueue_epoch_ship(final=True)

    # -- the worker hot loop ------------------------------------------------
    def _worker_body(self, thread: int, core: Core) -> Generator[Any, Any, None]:
        plan = self.plan
        is_join = plan.is_join
        update_profile = self.costs.append if is_join else self.costs.update
        update_lines = self.costs.append_lines if is_join else self.costs.update_lines
        cost_model = self.node.cost_model
        overload = self.sim.overload

        for stream_name, batch in self.flows[thread]:
            event_cover = float("-inf")
            if overload is not None:
                # Admission control: pace against the offered-load
                # schedule and possibly shed records before they cost a
                # cycle.  Shed records still advance the flow watermark
                # via the returned event-time cover.
                batch, event_cover = yield from overload.admit(
                    self, thread, stream_name, batch
                )
            pipeline = plan.pipeline_for(stream_name)
            # Ingest: stream the raw batch from memory through the caches,
            # then run the fused filter/project over every record.
            read_cost = cost_model.cache.streaming_cost(batch.wire_bytes)
            yield from core.execute(read_cost, 1.0)
            if pipeline.chain.op_count:
                yield from core.execute(
                    cost_model.compute_cost(self.costs.pipeline), float(len(batch))
                )

            result = pipeline.process_batch(batch)
            self.records_processed += len(batch)
            if result.survivors:
                working_set = quantize_working_set(self._ws_bytes + 4096)
                update_cost = cost_model.op(
                    update_profile, working_set, update_lines
                )
                yield from core.execute(update_cost, float(result.survivors))
                core.counters.count_records(result.survivors)
                now = self.sim.now
                windows = self.handle.absorb_batch(
                    result.group_windows, result.group_keys, result.group_partials
                )
                for window_id in windows:
                    self._last_contribution[window_id] = now
                self._ws_bytes += result.state_bytes
                if self.trigger is not None:
                    self.trigger.note_slices(windows)
            self._flow_pos[thread] += 1
            watermark_ts = result.max_timestamp
            if overload is not None and event_cover > watermark_ts:
                watermark_ts = event_cover
            self.watermarks.observe(thread, stream_name, watermark_ts)
            self.backend.observe_watermark(self.watermarks.watermark)

            if self.epoch.offer(batch.wire_bytes):
                self._enqueue_epoch_ship(final=False)
            # Cooperative yield: let this thread's merge coroutines run.
            yield SCHED_YIELD
        # Flow exhausted.
        self.watermarks.finish(thread)
        self.backend.observe_watermark(self.watermarks.watermark)
        self._workers_remaining -= 1
        if self._workers_remaining == 0:
            self.epoch.force()
            self._enqueue_epoch_ship(final=True)

    def _enqueue_epoch_ship(self, final: bool) -> None:
        deltas = self.handle.collect_deltas()
        trace(
            self.sim, "epoch", f"exec{self.executor_id} boundary",
            epoch=self.epoch.current_epoch, deltas=len(deltas), final=final,
        )
        marker = None
        if self.sim.faults is not None:
            # Record the cut (flow positions + retained deltas) and take
            # the boundary checkpoint, synchronously at this instant.
            # Under async-snapshot the recovery returns a SnapshotMarker
            # to emit in-band right after this cut's deltas.
            marker = self.sim.faults.recovery.on_cut(self, deltas, final)
        # Re-anchor the working-set estimate: fragments were just drained,
        # so the hot set is what actually remains resident locally.
        self._ws_bytes = float(self.handle.fragment_bytes())
        thread_count = len(self.schedulers)
        by_thread: list[list[EpochDelta]] = [[] for _ in range(thread_count)]
        for delta in deltas:
            leader = self.directory.leader_of_partition(delta.partition)
            by_thread[leader % thread_count].append(delta)
        for thread, subset in enumerate(by_thread):
            self._ship_inboxes[thread].put((subset, final, marker))

    def _defer_watermarks(self, deltas: list) -> list:
        """Keep the watermark only on the last delta per leader.

        When one leader owns several partitions (a non-identity
        :class:`PartitionDirectory`), a helper ships several sibling
        deltas per epoch over one FIFO channel.  The piggybacked
        watermark must not advance the leader's clock until every
        sibling has landed, or a window could fire between them — so
        all but the final delta per leader travel with -inf (which the
        clock's monotone ``advance`` ignores).
        """
        last_for_leader: dict[int, int] = {}
        for index, delta in enumerate(deltas):
            last_for_leader[self.directory.leader_of_partition(delta.partition)] = index
        deferred = []
        for index, delta in enumerate(deltas):
            leader = self.directory.leader_of_partition(delta.partition)
            if last_for_leader[leader] == index:
                deferred.append(delta)
            else:
                deferred.append(dataclasses.replace(delta, watermark=float("-inf")))
        return deferred

    def _owned_out_channels(self, thread: int) -> list[tuple[int, Any]]:
        """The (peer, producer) out-channels thread ``thread`` owns."""
        thread_count = len(self.schedulers)
        return [
            (peer_id, producer)
            for peer_id, producer in sorted(self._out_channels.items())
            if peer_id % thread_count == thread
        ]

    # -- the shipper coroutines ----------------------------------------------
    def _ship_task(self, thread: int, core: Core) -> Generator[Any, Any, None]:
        cost_model = self.node.cost_model
        while True:
            deltas, final, marker = yield from park(self._ship_inboxes[thread].get())
            deltas = self._defer_watermarks(deltas)
            for delta in deltas:
                leader = self.directory.leader_of_partition(delta.partition)
                if leader == self.executor_id:
                    # Promoted to lead this partition after the delta was
                    # collected.  Live migration: the delta's state exists
                    # nowhere else — hand it to the coordinator, which
                    # admits it locally through the dense-order gate.
                    # Crash promotion: the recovery path already merged
                    # the retained copy locally, nothing to ship.
                    if self.sim.elastic is not None:
                        self.sim.elastic.on_ship_blocked(self, delta)
                    continue
                producer = self._out_channels[leader]
                if not producer.closed:
                    # Serialisation: the delta streams out of the LSS memory.
                    yield from core.execute(
                        cost_model.cache.streaming_cost(max(delta.nbytes, 64)), 1.0
                    )
                if producer.closed:
                    # The partition's leadership moved to this peer after
                    # the delta was enqueued, and the shipper thread owning
                    # the channel closed it behind its own final cut —
                    # before this thread got here or while it serialised.
                    # Live migration: the coordinator must carry the
                    # delta to the new leader itself (it is counted in the
                    # handoff's pending set).  Crash promotion: the delta
                    # predates the reassignment instant, so the recovery
                    # body's retained-backlog merge has already folded it
                    # in; shipping it again could only produce a
                    # ledger-deduped duplicate.
                    if self.sim.elastic is not None:
                        self.sim.elastic.on_ship_blocked(self, delta)
                    continue
                for chunk in self._chunk_delta(delta):
                    yield from producer.send(core, chunk, chunk.nbytes)
                if self.sim.faults is not None and self.sim.faults.should_duplicate_delta(
                    self.executor_id
                ):
                    # Injected duplicate: the identical chunk sequence goes
                    # out again; the leader's epoch ledger must dedupe it.
                    for chunk in self._chunk_delta(delta):
                        yield from producer.send(core, chunk, chunk.nbytes)
            if marker is not None:
                # Barrier markers follow the boundary's deltas on every
                # open channel this thread owns (one sender per channel,
                # so FIFO order puts them after the cut everywhere).
                for _peer_id, producer in self._owned_out_channels(thread):
                    if producer.closed or producer.dead:
                        continue
                    yield from producer.send(core, marker, CHUNK_HEADER_BYTES)
            if thread == 0:
                # Even with nothing to ship, re-check the trigger: our own
                # watermark may have advanced past a window end.
                yield from self._check_triggers(core)
            if final:
                for _peer_id, producer in self._owned_out_channels(thread):
                    yield from producer.send(
                        core, DoneToken(self.executor_id), CHUNK_HEADER_BYTES
                    )
                    yield from producer.close(core)
                self._shippers_remaining -= 1
                self._maybe_finalize_soon()
                return

    def _chunk_delta(self, delta: EpochDelta) -> list[DeltaChunk]:
        """Split a delta into chunks that fit one channel buffer each.

        A chunk holds as many rows as fit after its header, and at least
        one; it carries a slice of each of the delta's columns.  With
        fixed-size payloads that is one division per delta.
        Variable-size payloads (append logs) are priced from one column of
        their lengths, oversized ones split first; each chunk then ends
        where the cumulative bytes would pass the capacity.
        """
        capacity = self.buffer_bytes - 512  # leave room for footer/header
        crdt = self.handle.crdt
        keys, key_windows, payloads = delta.keys, delta.key_windows, delta.payloads
        if crdt.fixed_size:
            row_bytes = 16 + crdt.payload_bytes
            step = max(1, (capacity - CHUNK_HEADER_BYTES) // row_bytes)
            starts = range(0, len(keys), step)
            spans = [(start, min(start + step, len(keys))) for start in starts] or [(0, 0)]
            sizes = [CHUNK_HEADER_BYTES + row_bytes * (end - start) for start, end in spans]
        else:
            keys, key_windows, payloads, row_bytes = self._split_oversized(
                keys, key_windows, payloads, crdt, capacity
            )
            # ends[j]: the bytes of rows[:j].
            ends = [0, *np.cumsum(row_bytes).tolist()]
            budget = capacity - CHUNK_HEADER_BYTES
            cuts = [0]
            while cuts[-1] < len(keys):
                start = cuts[-1]
                cuts.append(max(start + 1, bisect_right(ends, ends[start] + budget) - 1))
            spans = list(zip(cuts, cuts[1:])) or [(0, 0)]
            sizes = [CHUNK_HEADER_BYTES + ends[end] - ends[start] for start, end in spans]
        final = len(spans) - 1
        return [
            self._make_chunk(
                delta, keys[start:end], key_windows[start:end], payloads[start:end],
                nbytes, last=index == final,
            )
            for index, ((start, end), nbytes) in enumerate(zip(spans, sizes))
        ]

    @staticmethod
    def _split_oversized(
        keys: Sequence[Hashable],
        key_windows: np.ndarray,
        payloads: np.ndarray,
        crdt: Any,
        capacity: int,
    ) -> tuple[Sequence[Hashable], np.ndarray, np.ndarray, np.ndarray]:
        """The columns with any row bigger than one buffer split into
        rows of sub-tuples under the same key, and the bytes of every
        resulting row.

        Safe because the leader *merges* rows: the sub-tuples of an
        append-log payload concatenate back to it.
        """

        def priced(payloads: np.ndarray) -> np.ndarray:
            lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
            return 16 + crdt.length_bytes(lengths)

        row_bytes = priced(payloads)
        oversized = np.flatnonzero(row_bytes > capacity).tolist()
        if not oversized:
            return keys, key_windows, payloads, row_bytes
        split_keys: list = []
        split_payloads: list = []
        pieces = np.ones(len(keys), dtype=np.int64)
        start = 0
        for index in oversized:
            payload = payloads[index]
            step = max(1, (capacity - 64) // crdt.value_bytes(payload[:1]))
            cut = [payload[at:at + step] for at in range(0, len(payload), step)]
            pieces[index] = len(cut)
            split_keys.extend(keys[start:index])
            split_keys.extend([keys[index]] * len(cut))
            split_payloads.extend(payloads[start:index])
            split_payloads.extend(cut)
            start = index + 1
        split_keys.extend(keys[start:])
        split_payloads.extend(payloads[start:])
        column = np.fromiter(split_payloads, dtype=object, count=len(split_payloads))
        return split_keys, np.repeat(key_windows, pieces), column, priced(column)

    def _make_chunk(
        self,
        delta: EpochDelta,
        keys: Sequence[Hashable],
        key_windows: np.ndarray,
        payloads: np.ndarray,
        nbytes: int,
        last: bool,
    ) -> DeltaChunk:
        return DeltaChunk(
            operator_id=delta.operator_id,
            partition=delta.partition,
            from_executor=delta.from_executor,
            epoch=delta.epoch,
            keys=keys,
            key_windows=key_windows,
            payloads=payloads,
            nbytes=min(nbytes, self.buffer_bytes - 512),
            watermark=delta.watermark,
            last=last,
            ingest_times=self.hints_of(delta.windows) if last else (),
            windows=delta.windows if last else (),
        )

    # -- the merge coroutines -------------------------------------------------
    def _merge_task(self, core: Core, consumer: Any, peer_id: int) -> Generator[Any, Any, None]:
        cost_model = self.node.cost_model
        try:
            while True:
                # One footer poll before the channel parks this task.
                core.counters.charge(POLL_COST, 1.0)
                payload, _nbytes = yield from consumer.recv(core)
                if payload is CHANNEL_EOS:
                    if self.sim.faults is not None:
                        self.sim.faults.recovery.on_channel_closed(self.executor_id, peer_id)
                    yield from consumer.release(core)
                    break
                if isinstance(payload, DoneToken):
                    self._done_peers.add(payload.from_executor)
                    self.backend.clock.advance(payload.from_executor, float("inf"))
                    if self.sim.faults is not None:
                        self.sim.faults.recovery.on_channel_closed(self.executor_id, peer_id)
                    yield from consumer.release(core)
                    yield from self._check_triggers(core)
                    continue
                if isinstance(payload, SnapshotMarker):
                    if self.sim.faults is not None:
                        self.sim.faults.recovery.on_marker(self, peer_id, payload)
                    yield from consumer.release(core)
                    continue
                chunk: DeltaChunk = payload
                key = (chunk.operator_id, chunk.partition, chunk.from_executor, chunk.epoch)
                parts = self._pending_parts.get(key)
                if parts is None:
                    parts = self._pending_parts[key] = []
                parts.append(chunk)
                if chunk.last:
                    delta = assemble(self._pending_parts.pop(key))
                    rows = len(delta.keys)
                    if rows:
                        working_set = quantize_working_set(self._ws_bytes + 4096)
                        merge_cost = cost_model.op(
                            self.costs.merge_pair, working_set, self.costs.merge_lines
                        )
                        yield from core.execute(merge_cost, float(rows))
                    if self.sim.faults is not None and self.sim.faults.recovery.intercept(
                        self, peer_id, delta, chunk.ingest_times
                    ):
                        # Alignment: the sender already passed its barrier
                        # for the outstanding round but this executor has
                        # not captured yet — the delta is post-snapshot,
                        # spilled until the local capture happens.
                        yield from consumer.release(core)
                        continue
                    if self.sim.elastic is not None and self.sim.elastic.on_delta(
                        self, delta, chunk.ingest_times
                    ):
                        # Live migration: the delta targets a partition this
                        # executor just handed off (relay it to the new
                        # leader) or arrived out of order at the new leader
                        # (reorder-buffered); either way the coordinator
                        # owns it now.
                        yield from consumer.release(core)
                        continue
                    # The ledger rejects duplicate epochs (retransmission or
                    # injected duplicate): a stale delta must not re-merge,
                    # re-note windows, or count as progress.
                    fresh = self.handle.merge_delta(delta)
                    if fresh:
                        if self.sim.faults is not None:
                            # Feed the (partition, term) commit registry:
                            # the machine-checked no-split-brain invariant.
                            self.sim.faults.note_partition_commit(
                                delta.partition, self.executor_id
                            )
                        trace(
                            self.sim, "merge",
                            f"exec{self.executor_id} merged p{delta.partition}",
                            from_executor=delta.from_executor, epoch=delta.epoch,
                            pairs=rows,
                        )
                        # The lag reference is when the *records* were
                        # ingested at the helper, not when the delta
                        # happened to arrive here.
                        self.fold_hints(chunk.ingest_times)
                        if self.trigger is not None:
                            self.trigger.note_slices(delta.windows)
                        yield from self._check_triggers(core)
                    yield from consumer.release(core)
                else:
                    yield from consumer.release(core)
        except ChannelResetError:
            # The peer was declared dead and the channel reset: drop its
            # half-assembled chunks — recovery re-creates that state from
            # the checkpoint and retained deltas.
            if self.sim.faults is not None:
                self.sim.faults.recovery.on_channel_closed(self.executor_id, peer_id)
            stale = [k for k in self._pending_parts if k[2] == peer_id]
            for k in stale:
                del self._pending_parts[k]
            trace(
                self.sim, "merge",
                f"exec{self.executor_id} merge stream from {peer_id} reset",
                dropped_parts=len(stale),
            )
        self._mergers_remaining -= 1
        self._maybe_finalize_soon()

    def on_peer_failed(self, peer_id: int) -> None:
        """Sever both channel directions to a peer declared dead."""
        producer = self._out_channels.get(peer_id)
        if producer is not None:
            producer.mark_dead()
        consumer = self._in_channels.get(peer_id)
        if consumer is not None:
            consumer.force_reset()

    def install(self, handoff: Handoff) -> None:
        """Lead ``handoff``'s partitions from now on, in one simulated instant.

        The one site where a partition changes leader (failover and live
        migration both build a :class:`Handoff`): state, ledger seed, lag
        hints, re-pended windows, the sanitizer's ownership shadow and the
        directory flip with its term bump move as one.
        """
        san = self.sim.sanitize
        windows = set(handoff.windows)
        for partition, (src, pairs) in handoff.partitions.items():
            self.handle.store_for(partition).absorb_many(pairs)
            windows.update(self._windows_of(pairs))
            if san is not None:
                san.note_ownership_handoff(
                    self.plan.operator_id, partition, src, self.executor_id,
                    ranges_copied=handoff.ranges, ranges_total=handoff.ranges,
                )
            self.directory.reassign(partition, self.executor_id, self.sim.now)
        for (op, partition, helper), epoch in handoff.ledger.items():
            self.backend.ledger.seed(op, partition, helper, epoch)
        self.fold_hints(handoff.hints)
        # Every window the installed keys touch is forced back to pending:
        # a re-fire extracts only those keys (earlier fires popped the rest).
        if self.trigger is not None:
            self.trigger.restore_pending(windows)

    def hints_of(self, windows: Iterable[int]) -> tuple:
        """``(window, last ingest time)`` for each of ``windows`` seen here.

        Every consumer folds these with a per-window max (:meth:`fold_hints`),
        so their order carries no meaning.
        """
        last = self._last_contribution
        return tuple((win, last[win]) for win in windows if win in last)

    def fold_hints(self, hints: Iterable[tuple[int, float]]) -> None:
        """Raise each window's lag reference to a later ingest time."""
        last = self._last_contribution
        for win, ingested_at in hints:
            if ingested_at > last.get(win, float("-inf")):
                last[win] = ingested_at

    def _windows_of(self, pairs: list) -> list[int]:
        """The windows the state keys of ``pairs`` contribute to."""
        window = self.plan.window
        slice_ids = distinct_windows(window_column(list(map(itemgetter(0), pairs))))
        return sorted({w for slice_id in slice_ids for w in window.windows_of_slice(slice_id)})

    def _watchdog_body(self, core: Core) -> Generator[Any, Any, None]:
        """Fault-mode-only coroutine: react to confirmed peer deaths.

        Runs on scheduler 0 and wakes every watchdog period.  It acts on
        *this executor's own* membership view (``dead_peers_for``): a
        peer's channels are severed only once the cluster fenced it by
        quorum AND the death announcement reached this node — which a
        partition can delay until heal.  Two executors' watchdogs may
        therefore legitimately act at different times.
        """
        faults = self.sim.faults
        handled: set[int] = set()
        while not self._finalized:
            yield from park(Timeout(faults.watchdog_period_s))
            for peer_id in faults.membership.dead_peers_for(self.executor_id):
                if peer_id == self.executor_id or peer_id in handled:
                    continue
                handled.add(peer_id)
                trace(
                    self.sim, "fault",
                    f"exec{self.executor_id} watchdog: peer {peer_id} dead",
                )
                self.on_peer_failed(peer_id)

    def _maybe_finalize_soon(self) -> None:
        if self.sim.faults is not None and self.sim.faults.holds_finalize(
            self.executor_id
        ):
            # A recovery is in flight: it may still re-deliver deltas or
            # re-pend windows here.  finish_recovery re-invokes this.
            return
        if self.sim.elastic is not None and self.sim.elastic.holds_finalize(
            self.executor_id
        ):
            # A migration handoff is forwarding in-flight deltas here; the
            # coordinator re-invokes this once the relay drain completes.
            return
        if (
            self._mergers_remaining == 0
            and self._shippers_remaining == 0
            and not self._finalized
        ):
            # Finalisation needs a task context; run it as a sim process on
            # core 0 once every merge stream has drained.
            self._finalized = True
            self.sim.process(self._finalize(), name=f"exec{self.executor_id}.final")

    def _finalize(self) -> Generator[Any, Any, None]:
        core = self.node.core(0)
        yield from self._check_triggers(core)
        if self.trigger is not None and self.trigger.pending:
            raise SimulationError(
                f"executor {self.executor_id} finalised with pending windows "
                f"{sorted(self.trigger.pending)[:5]} (frontier "
                f"{self.backend.clock.min_watermark()})"
            )
        self.finished.fire(self.results)

    # -- window triggering -------------------------------------------------------
    def _check_triggers(self, core: Core) -> Generator[Any, Any, None]:
        if self.sim.faults is not None and self.sim.faults.recovery.triggers_suppressed(
            self.executor_id
        ):
            # Mid-recovery: restored state is incomplete until the replay
            # finishes; firing now would emit partial windows.
            return
        if self.sim.elastic is not None and self.sim.elastic.triggers_suppressed(
            self.executor_id
        ):
            # Mid-handoff: epochs that were in flight to the old leader
            # are still being forwarded; firing now would emit windows
            # with a migrated key's state split across two executors.
            return
        frontier = self.backend.clock.min_watermark()
        plan = self.plan
        probe = partial(self._probe, core)
        if self.session_trigger is not None:
            yield from fire_sessions(
                self.handle, self.session_trigger, frontier, self.results, probe
            )
            return
        assert self.trigger is not None
        san = self.sim.sanitize
        for window_id in self.trigger.due_windows(frontier):
            if san is not None:
                san.check_window_fire(
                    self.executor_id, window_id,
                    plan.window.window_end(window_id),
                    self.backend.clock.min_watermark(),
                )
            if plan.is_join:
                yield from fire_join(
                    self.handle, window_id, self.sim.now, self.results,
                    self._last_contribution, probe,
                )
                continue
            fired = yield from fire_aggregate(
                (self.handle,), plan, window_id, self.sim.now, self.results,
                self._last_contribution, partial(self._emit, core, window_id),
            )
            self._ws_bytes = max(
                0.0, self._ws_bytes - fired * (16 + plan.crdt.payload_bytes)
            )

    def _emit(
        self, core: Core, window_id: int, count: int, _folded: int
    ) -> Generator[Any, Any, None]:
        trace(
            self.sim, "window", f"exec{self.executor_id} fired w{window_id}", keys=count
        )
        emit_cost = self.node.cost_model.op(self.costs.emit, 0.0, 0.0)
        yield from core.execute(emit_cost, float(count))

    def _probe(self, core: Core, count: int) -> Generator[Any, Any, None]:
        working_set = quantize_working_set(self._ws_bytes + 4096)
        probe_cost = self.node.cost_model.op(self.costs.probe_pair, working_set, 1.0)
        yield from core.execute(probe_cost, float(count))
