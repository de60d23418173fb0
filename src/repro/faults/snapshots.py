"""Marker-based asynchronous consistent snapshots (the second strategy).

Slash's native recovery (``recovery.py``) checkpoints *synchronously at
every epoch cut* and replicates to a buddy — cheap per cut, but the
checkpoint frequency is welded to the epoch length.  This module adds
the classic alternative: Chandy-Lamport barrier rounds in the style of
Flink's asynchronous snapshots (Carbone et al., "Lightweight
Asynchronous Snapshots for Distributed Dataflows"), selectable per run
via ``recovery_strategy="async-snapshot"``.

Two recovery objects live here; each is what its engine registers with
the :class:`~repro.faults.injector.FaultInjector`:

* :class:`SnapshotCoordinator` drives rounds over Slash executors.  It
  is an :class:`~repro.faults.recovery.EpochBuddyRecovery` whose cut,
  restore and marker hooks differ: the takeover itself is shared.  A
  round starts on a timer; each participant captures its state at its
  *next epoch cut* and emits a :class:`~repro.core.executor.SnapshotMarker`
  in-band right after that cut's deltas on every outbound channel (one
  sender per channel, so FIFO puts the marker exactly at the barrier).
  Receivers align: a delta arriving *after* the sender's marker but
  *before* the local capture is post-snapshot and spills until the local
  capture; a delta arriving *before* the sender's marker but after the
  local capture is in-flight channel state of the cut (recorded for the
  ``snapshot-consistency`` invariant; the epoch ledger's admission
  frontier already covers it on restore).  A round completes when every
  participant captured and every channel delivered its marker (or
  closed); the captures persist into the shared
  :class:`~repro.faults.checkpoint.CheckpointStore` and replicate to the
  buddy like any epoch-buddy checkpoint.  Crash recovery then restores
  the victim's capture from the *newest complete round* instead of its
  newest per-cut checkpoint.

* :class:`PartitionedChaosController` gives the partitioned baselines
  (UpPar) their recovery: *capture* rounds on the engine's one barrier round
  (partitioners record their absolute input cursors at the cut,
  consumers their state once aligned — Flink's aligned checkpoints),
  and Flink-style **global restart** on a fence — the generation halts,
  a new generation over the survivors restores the merged snapshot
  state (re-bucketed to the new consumer count) and replays every flow
  from its captured cursor.

Layering: this module sits with ``faults`` (above ``core``, below
``baselines``); the partitioned engine hands it duck-typed run-context
objects, so nothing here imports from ``repro.baselines``.
"""

from __future__ import annotations

import weakref
from typing import Any, Optional

from repro.core.executor import SnapshotMarker
from repro.core.system import STRATEGY_ASYNC_SNAPSHOT
from repro.faults.checkpoint import CHECKPOINT_HEADER_BYTES, Checkpoint
from repro.faults.recovery import EpochBuddyRecovery
from repro.simnet.kernel import Timeout
from repro.simnet.trace import trace
from repro.state.epoch import EpochDelta

#: Fraction of ``detect_s`` the controller waits between halting a dead
#: generation and starting its replacement (cancel + redeploy latency).
REDEPLOY_FRACTION = 0.5


# ---------------------------------------------------------------------------
# Slash: Chandy-Lamport rounds over the n^2 delta channels
# ---------------------------------------------------------------------------
class _SlashRound:
    """Bookkeeping of one outstanding marker round over Slash executors."""

    def __init__(self, round_id: int, started_at: float, participants: set[int]):
        self.id = round_id
        self.started_at = started_at
        self.participants = set(participants)
        #: src -> capture boundary (``epochs_shipped - 1`` at the cut).
        self.boundaries: dict[int, int] = {}
        #: executor -> its capture (a Checkpoint in the shared store).
        self.captured: dict[int, Checkpoint] = {}
        #: (dst, src) pairs whose marker arrived at dst.
        self.marker_seen: set[tuple[int, int]] = set()
        #: (dst, src) pairs still owing a marker (or a close).
        self.pending_pairs: set[tuple[int, int]] = set()
        #: dst -> [(src, delta, ingest_times)] aligned/spilled post-marker
        #: deltas, merged at dst's capture instant.
        self.spills: dict[int, list[tuple[int, EpochDelta, tuple]]] = {}
        #: (dst, src) -> [(operator_id, partition, epoch)] in-flight
        #: channel state (pre-marker arrivals after dst's capture).
        self.channel_state: dict[tuple[int, int], list[tuple[str, int, int]]] = {}
        self.completed_at: Optional[float] = None
        self.failed = False


class SnapshotCoordinator(EpochBuddyRecovery):
    """Drives single-outstanding marker rounds over a Slash deployment."""

    strategy = STRATEGY_ASYNC_SNAPSHOT

    def __init__(self, injector: Any, directory: Any, executors: list[Any]):
        super().__init__(injector, directory, executors)
        self._next_round = 0
        self.active: Optional[_SlashRound] = None
        self.completed: list[_SlashRound] = []
        #: Executors that already shipped their final cut: no further
        #: cuts will happen, so no new round can complete.
        self._final_cut: set[int] = set()

    # -- the driver ----------------------------------------------------------
    def arm(self) -> None:
        """Start the round driver."""
        self.sim.process(self.driver(), name="snapshot.coordinator")

    def driver(self):
        """Start a round every snapshot interval while one can still finish."""
        while True:
            yield Timeout(self.injector.snapshot_interval_s)
            if self.injector.deployment_finished():
                return
            if self.active is not None:
                continue  # single outstanding round
            if not self._start_round():
                return

    def _start_round(self) -> bool:
        injector = self.injector
        participants: set[int] = set()
        for executor in self.executors:
            eid = executor.executor_id
            if eid in injector.crashed:
                continue
            if eid in self._final_cut or executor._finalized:
                # A participant that will never cut again can never
                # capture: the protocol is out of barriers.
                return False
            participants.add(eid)
        if not participants:
            return False
        rnd = _SlashRound(self._next_round, self.sim.now, participants)
        rnd.pending_pairs = {
            (dst, src)
            for dst in participants
            for src in participants
            if dst != src
        }
        self._next_round += 1
        self.active = rnd
        self.injector.stats["snapshot_rounds_started"] += 1
        trace(
            self.sim, "snapshot", f"round {rnd.id} started",
            participants=sorted(participants),
        )
        return True

    # -- hooks from the executors ---------------------------------------------
    def checkpoint_cut(
        self, executor: Any, boundary: int, final: bool
    ) -> Optional[SnapshotMarker]:
        """An executor reached an epoch cut; capture if a round is pending.

        Returns the marker the shipper threads must emit right after the
        cut's deltas, or None when no round is waiting on this executor.
        """
        eid = executor.executor_id
        if final:
            self._final_cut.add(eid)
        rnd = self.active
        if rnd is None or eid not in rnd.participants or eid in rnd.captured:
            return None
        checkpoint = self._capture(executor, boundary, f"snap.r{rnd.id}.exec{eid}")
        rnd.captured[eid] = checkpoint
        rnd.boundaries[eid] = boundary
        self.injector.stats["snapshot_captures"] += 1
        trace(
            self.sim, "snapshot", f"exec {eid} captured",
            round=rnd.id, boundary=boundary,
        )
        self._merge_spills(rnd, executor)
        self._maybe_complete(rnd)
        return SnapshotMarker(round_id=rnd.id, from_executor=eid, boundary=boundary)

    def on_marker(self, executor: Any, peer_id: int, marker: SnapshotMarker) -> None:
        """A barrier marker arrived at ``executor`` from ``peer_id``."""
        self.injector.stats["snapshot_markers_seen"] += 1
        rnd = self.active
        if rnd is None or marker.round_id != rnd.id:
            return  # marker of an aborted round: nothing to align against
        dst = executor.executor_id
        rnd.boundaries.setdefault(marker.from_executor, marker.boundary)
        rnd.marker_seen.add((dst, peer_id))
        rnd.pending_pairs.discard((dst, peer_id))
        self._maybe_complete(rnd)

    def intercept(self, executor: Any, peer_id: int, delta: EpochDelta, ingest_times: tuple) -> bool:
        """Decide a delta's fate relative to the outstanding round.

        True means the delta was spilled (post-marker, pre-local-capture)
        and the merge task must NOT merge it now; the spill merges at the
        local capture instant.  False means merge normally — recording it
        as in-flight channel state when it is pre-marker, post-capture.
        """
        rnd = self.active
        if rnd is None:
            return False
        dst = executor.executor_id
        if dst not in rnd.participants or peer_id not in rnd.participants:
            return False
        if (dst, peer_id) in rnd.marker_seen:
            if dst in rnd.captured:
                return False  # both sides past the barrier: normal data
            rnd.spills.setdefault(dst, []).append(
                (peer_id, delta, tuple(ingest_times))
            )
            self.injector.stats["snapshot_deltas_spilled"] += 1
            return True
        if dst in rnd.captured:
            # In-flight channel state of the cut.  The merge proceeds —
            # dst's captured ledger frontier stops exactly before these
            # epochs, so a restore replays them — and the record feeds
            # the snapshot-consistency invariant.
            rnd.channel_state.setdefault((dst, peer_id), []).append(
                (delta.operator_id, delta.partition, delta.epoch)
            )
            self.injector.stats["snapshot_channel_deltas"] += 1
        return False

    def on_channel_closed(self, dst_id: int, src_id: int) -> None:
        """EOS/DoneToken/reset on (dst, src): no marker will ever come."""
        rnd = self.active
        if rnd is None:
            return
        rnd.pending_pairs.discard((dst_id, src_id))
        self._maybe_complete(rnd)

    def on_crash(self, victim: int) -> None:
        """A participant died: its capture is unreachable, abort the round."""
        rnd = self.active
        if rnd is not None and victim in rnd.participants:
            self._fail(rnd, f"participant {victim} crashed")

    # -- internals -----------------------------------------------------------
    def _merge_spills(self, rnd: _SlashRound, executor: Any) -> None:
        """Merge the deltas spilled for ``executor``, post-capture.

        Mirrors the merge task's fresh-delta bookkeeping (commit
        registry, ingest times, trigger slices) without the CPU charge —
        the merge cost was already paid when the delta arrived and was
        diverted to the spill.  Trigger *checks* are deferred to the next
        natural check; firing late is always safe.
        """
        eid = executor.executor_id
        for _src, delta, ingest_times in rnd.spills.pop(eid, []):
            fresh = executor.handle.merge_delta(delta)
            if not fresh:
                continue
            self.injector.note_partition_commit(delta.partition, eid)
            executor.fold_hints(ingest_times)
            if executor.trigger is not None:
                executor.trigger.note_slices(delta.windows)

    def _fail(self, rnd: _SlashRound, reason: str) -> None:
        rnd.failed = True
        self.active = None
        self.injector.stats["snapshot_rounds_failed"] += 1
        trace(self.sim, "snapshot", f"round {rnd.id} aborted", reason=reason)
        # Spilled deltas are ordinary post-snapshot data once the round
        # is gone: merge them into any still-live holders.
        for dst in sorted(rnd.spills):
            if dst in self.injector.crashed:
                continue
            self._merge_spills(rnd, self.executors[dst])

    def _maybe_complete(self, rnd: _SlashRound) -> None:
        if rnd.failed or self.active is not rnd:
            return
        if set(rnd.captured) != rnd.participants or rnd.pending_pairs:
            return
        rnd.completed_at = self.sim.now
        self.active = None
        self.completed.append(rnd)
        self.injector.stats["snapshot_rounds_complete"] += 1
        trace(
            self.sim, "snapshot", f"round {rnd.id} complete",
            captures=len(rnd.captured),
            duration_s=rnd.completed_at - rnd.started_at,
        )
        sanitizer = getattr(self.sim, "sanitize", None)
        if sanitizer is not None:
            sanitizer.note_snapshot_round(
                round_id=rnd.id,
                participants=sorted(rnd.participants),
                boundaries=dict(rnd.boundaries),
                frontiers={
                    eid: dict(ckpt.ledger) for eid, ckpt in rnd.captured.items()
                },
                channel_state={
                    pair: list(entries)
                    for pair, entries in rnd.channel_state.items()
                },
            )

    def restorable(self, victim: int) -> Optional[Checkpoint]:
        """The victim's capture from the newest usable complete round.

        Only captures from *complete* rounds are consistent cuts; an
        incomplete round's capture may have committed via replication but
        must never be restored.  Usable means the capture replicated
        (committed) — the buddy-dead fallback is the caller's.
        """
        best: Optional[Checkpoint] = None
        for rnd in self.completed:
            checkpoint = rnd.captured.get(victim)
            if checkpoint is None or checkpoint.committed_at is None:
                continue
            if best is None or checkpoint.boundary > best.boundary:
                best = checkpoint
        return best


# ---------------------------------------------------------------------------
# Partitioned baselines: aligned snapshots + global restart
# ---------------------------------------------------------------------------
class _PartitionedRound:
    """One capture round: the chaos plane's book of one barrier round."""

    def __init__(self, started_at: float):
        self.started_at = started_at
        #: The engine's barrier round this capture rides on.
        self.barrier: Any = None
        #: Committed output of *prior* generations, frozen at round
        #: start (== at generation start; the base only changes on
        #: restart).  Restoring from this round re-bases on these plus
        #: the captures below.
        self.base_aggregates: dict = {}
        self.base_joins: list = []
        self.base_emitted = 0
        #: flow_id -> absolute batch cursor at the partitioner's cut.
        self.cursors: dict[int, int] = {}
        #: consumer gid -> frozen state/results at its aligned capture.
        self.consumer_caps: dict[int, dict] = {}
        self.checkpoints: list[Checkpoint] = []
        self.completed_at: Optional[float] = None

    @property
    def id(self) -> int:
        return self.barrier.id


def _capture_consumer(caps: dict, stats: dict, consumer: Any) -> None:
    """Freeze an aligned consumer's state and results into ``caps``."""
    keys, payloads = consumer.state.scan_columns()
    results = consumer.results
    caps[consumer.gid] = {
        "node": consumer.node_index,
        "state": dict(zip(keys, payloads)),
        "aggregates": dict(results.aggregates),
        "joins": list(results.join_pairs),
        "emitted": results.emitted,
        "state_bytes": consumer.state_bytes,
    }
    stats["snapshot_captures"] += 1


class PartitionedChaosController:
    """Recovery for the partitioned baselines (UpPar).

    Submits capture rounds to the run's barrier and executes the
    Flink-style global restart when the membership fences a node.  The
    run context (``repro.baselines.partitioned._RunContext``) is
    duck-typed: it must expose ``sim``, ``cluster``, ``nodes``, ``plan``,
    ``gen`` (the current generation), ``barrier`` with
    ``start_barrier`` / ``end_barrier`` / ``abort_barrier``,
    ``barrier_stats``, ``halt_node``, ``halt_generation`` and
    ``restart_generation``.
    """

    strategy = STRATEGY_ASYNC_SNAPSHOT
    #: No partition directory: every term stays 0.
    directory = None

    def __init__(self, injector: Any, ctx: Any):
        # A weak back-reference: the injector holds this controller.
        self.injector = weakref.proxy(injector)
        self.ctx = ctx
        self.sim = ctx.sim
        self.query_plan = ctx.plan
        ctx.barrier_stats = injector.stats
        #: The outstanding capture round, if the barrier is ours.
        self.active: Optional[_PartitionedRound] = None
        self.completed: list[_PartitionedRound] = []
        # Committed output of completed generations (see collect()).
        self.base_aggregates: dict = {}
        self.base_joins: list = []
        self.base_emitted = 0
        self.restarting = False
        self._pending_fences: list[int] = []
        self._restart_proc_running = False
        self.generations_started = 1

    @property
    def finished(self) -> bool:
        """Deployment-finished for the membership agents' exit check."""
        if self.restarting or self._pending_fences:
            return False
        gen = self.ctx.gen
        return all(consumer.done for consumer in gen.consumers)

    def member_finished(self, member: int) -> bool:
        """A restart can revive any node's work: done only when all are."""
        return self.finished

    # -- capture rounds -------------------------------------------------------
    def arm(self) -> None:
        """Start the capture-round driver."""
        self.sim.process(self.driver(), name="snapshot.controller")

    def driver(self):
        interval = self.injector.snapshot_interval_s
        while True:
            yield Timeout(interval)
            if self.finished:
                return
            if self.ctx.barrier is not None or self.restarting:
                continue  # one outstanding round, capture or reroute
            self._start_round()

    def _start_round(self) -> None:
        rnd = _PartitionedRound(self.sim.now)
        rnd.base_aggregates = dict(self.base_aggregates)
        rnd.base_joins = list(self.base_joins)
        rnd.base_emitted = self.base_emitted
        self.active = rnd
        self.injector.stats["snapshot_rounds_started"] += 1
        # The callbacks reach the round's books, not the round: the round
        # holds the barrier that holds them.
        cursors, caps, stats = rnd.cursors, rnd.consumer_caps, self.injector.stats
        rnd.barrier = self.ctx.start_barrier(
            on_cut=lambda partitioner: cursors.update(partitioner.abs_cursors()),
            on_aligned=lambda consumer: _capture_consumer(caps, stats, consumer),
        )
        trace(
            self.sim, "snapshot", f"aligned round {rnd.id} started",
            generation=rnd.barrier.gen.number,
            partitioners=len(rnd.barrier.pending_partitioners),
            consumers=len(rnd.barrier.pending_consumers),
        )
        self.sim.process(self._commit_when_done(rnd), name=f"snap.part.r{rnd.id}")

    def _commit_when_done(self, rnd: _PartitionedRound):
        """Wait for the round's completion event, then persist it."""
        if not (yield rnd.barrier.done):
            return  # aborted
        rnd.completed_at = self.sim.now
        self.active = None
        self.ctx.end_barrier(rnd.barrier)
        self.completed.append(rnd)
        self.injector.stats["snapshot_rounds_complete"] += 1
        # Persist one checkpoint per node (its consumers' captures) into
        # the shared store and replicate to the buddy node.
        by_node: dict[int, list[dict]] = {}
        for caps in rnd.consumer_caps.values():
            by_node.setdefault(caps["node"], []).append(caps)
        for node_index in range(self.ctx.nodes):
            caps_list = by_node.get(node_index, [])
            nbytes = CHECKPOINT_HEADER_BYTES + sum(
                int(caps["state_bytes"]) + 32 * len(caps["aggregates"])
                for caps in caps_list
            )
            checkpoint = Checkpoint(
                executor_id=node_index,
                boundary=rnd.id,
                nbytes=nbytes,
                captured_at=self.sim.now,
            )
            self.injector.checkpoints.add(checkpoint)
            rnd.checkpoints.append(checkpoint)
            self.sim.process(
                self.injector.replicate(checkpoint),
                name=f"snap.part.r{rnd.id}.n{node_index}",
            )
        trace(
            self.sim, "snapshot", f"aligned round {rnd.id} complete",
            captures=len(rnd.consumer_caps),
            duration_s=rnd.completed_at - rnd.started_at,
        )

    def _abort_round(self, reason: str) -> None:
        """Abort the outstanding barrier round, capture or reroute."""
        self.ctx.abort_barrier()
        rnd, self.active = self.active, None
        if rnd is None:
            return
        self.injector.stats["snapshot_rounds_failed"] += 1
        trace(self.sim, "snapshot", f"aligned round {rnd.id} aborted", reason=reason)

    # -- crash handling -------------------------------------------------------
    def on_crash(self, victim: int) -> None:
        """The plan killed node ``victim``: halt its workers in place."""
        self._abort_round(f"node {victim} crashed")
        self.ctx.halt_node(victim)

    def on_fence(self, victim: int, proposer: int) -> None:
        """A quorum-backed fence committed: schedule the global restart."""
        self.injector.membership.announce_death(victim, proposer)
        self._pending_fences.append(victim)
        self.restarting = True
        self._abort_round(f"node {victim} fenced")
        self.ctx.halt_generation()
        if not self._restart_proc_running:
            self._restart_proc_running = True
            self.sim.process(
                self._restart_proc(), name=f"part.restart.n{victim}"
            )

    def _restart_proc(self):
        """Halt -> redeploy wait -> restore newest usable round -> replay.

        Loops while fences keep arriving (a cascade batches into as few
        restarts as the fence timing allows); each iteration rebuilds
        one generation over the then-current survivors.
        """
        injector = self.injector
        try:
            while self._pending_fences:
                yield Timeout(injector.detect_s * REDEPLOY_FRACTION)
                victims = list(self._pending_fences)
                del self._pending_fences[: len(victims)]
                survivors = [
                    index for index in range(self.ctx.nodes)
                    if index not in injector.crashed
                ]
                if not survivors:
                    raise RuntimeError("no surviving node to restart on")
                rnd = self._restorable_round()
                restore = self._build_restore(rnd)
                # Charge the snapshot fetch: every crashed node's capture
                # travels from its buddy to the restart coordinator.
                if rnd is not None:
                    fetch_node = survivors[0]
                    for checkpoint in rnd.checkpoints:
                        if checkpoint.executor_id not in injector.crashed:
                            continue
                        buddy = (checkpoint.executor_id + 1) % self.ctx.nodes
                        if buddy != fetch_node and checkpoint.nbytes:
                            link = self.ctx.cluster.link(buddy, fetch_node)
                            yield from link.send(checkpoint.nbytes)
                replay = self.ctx.restart_generation(survivors, restore)
                self.generations_started += 1
                now = self.sim.now
                for victim in victims:
                    info = injector.recovery_info.setdefault(victim, {})
                    info["checkpoint_boundary"] = (
                        rnd.id if rnd is not None else -1
                    )
                    info["restored_pairs"] = restore["restored_pairs"]
                    info["replayed_batches"] = replay["replayed_batches"]
                    info["replayed_records"] = replay["replayed_records"]
                    info["recovered_at"] = now
                    info["recovery_s"] = now - info.get("crashed_at", now)
                    injector.recovery_pending.discard(victim)
                trace(
                    self.sim, "snapshot",
                    f"generation restarted after fence of {sorted(victims)}",
                    survivors=survivors,
                    round=rnd.id if rnd is not None else -1,
                    replayed_batches=replay["replayed_batches"],
                )
        finally:
            self._restart_proc_running = False
            self.restarting = False

    def _restorable_round(self) -> Optional[_PartitionedRound]:
        """Newest complete round whose captures are all still reachable.

        A node's capture lives locally (node alive) or as the committed
        replica on its buddy; a dead owner with a dead buddy — or with a
        replication that never committed — makes the whole round
        unusable, because a global restore needs every node's slice.
        """
        crashed = self.injector.crashed
        best: Optional[_PartitionedRound] = None
        for rnd in self.completed:
            usable = True
            for checkpoint in rnd.checkpoints:
                owner = checkpoint.executor_id
                if owner not in crashed:
                    continue
                buddy = (owner + 1) % self.ctx.nodes
                if (
                    buddy == owner
                    or buddy in crashed
                    or checkpoint.committed_at is None
                ):
                    usable = False
                    break
            if usable and (best is None or rnd.id > best.id):
                best = rnd
        return best

    def _build_restore(self, rnd: Optional[_PartitionedRound]) -> dict:
        """Merge a round's captures into one restore bundle and re-base.

        The captured results become this run's committed base output:
        the replacement generation re-derives everything after the cut
        (restored state + replay), so post-capture output of the dead
        generation is discarded, exactly like Slash discards a victim's
        post-checkpoint emissions.
        """
        if rnd is None:
            self.base_aggregates = {}
            self.base_joins = []
            self.base_emitted = 0
            return {
                "round_id": -1, "cursors": {}, "state": {},
                "restored_pairs": 0,
            }
        state: dict = {}
        aggregates = dict(rnd.base_aggregates)
        joins = list(rnd.base_joins)
        emitted = rnd.base_emitted
        for gid in sorted(rnd.consumer_caps):
            caps = rnd.consumer_caps[gid]
            # The round may be restored again after a second crash: the
            # merged dict is new, and the payloads are immutable.
            state.update(caps["state"])
            aggregates.update(caps["aggregates"])
            joins.extend(caps["joins"])
            emitted += caps["emitted"]
        self.base_aggregates = aggregates
        self.base_joins = joins
        self.base_emitted = emitted
        return {
            "round_id": rnd.id,
            "cursors": dict(rnd.cursors),
            "state": state,
            "restored_pairs": len(state),
        }

    # -- results ---------------------------------------------------------------
    def committed_base(self) -> tuple[dict, list, int]:
        """(aggregates, joins, emitted) of all completed generations."""
        return self.base_aggregates, self.base_joins, self.base_emitted
