"""Slash's epoch-buddy recovery: the takeover of a fenced executor.

The :class:`~repro.faults.injector.FaultInjector` applies faults and
runs membership and fencing; what a committed fence *does* is the
business of the recovery object the engine registered with it.  This
module holds Slash's native one (paper Sec. 7.2.2 frames epochs as the
classic synchronisation point for exactly this).  Every executor records
an epoch cut at every boundary (:meth:`EpochBuddyRecovery.on_cut`): flow
positions, retained deltas, and a checkpoint replicated to its buddy —
the raw material of recovery.

Recovery after a fence commits:

1. the fence administratively halts the victim (it may still be alive —
   an asymmetric partition makes the majority fence a healthy node);
   survivors' watchdogs sever channels to the victim once the death
   announcement reaches them, and the lowest-id survivor is promoted;
2. the promoted leader atomically (same simulated instant) restores the
   victim's last *committed* checkpoint, seeds its epoch ledger from the
   checkpoint's admission frontier, takes over the victim's partitions in
   the shared directory, and merges every retained delta — the ledger
   deduplicates anything the checkpoint already contains, so CRDT merges
   stay exactly-once;
3. the victim's own retained deltas (shipped but possibly never merged)
   are re-delivered to the surviving leaders, again ledger-deduplicated;
4. the promoted leader replays the victim's input flows from the
   checkpoint's cut, re-absorbing its primary-partition contributions and
   re-shipping the other partitions' partials under their original epoch
   identities (watermark ``-inf``: replayed data must not advance clocks);
5. recovery finishes by broadcasting a ``+inf`` clock entry for the
   victim to every survivor (the victim will never contribute again) and
   re-checking triggers, so windows stalled on the dead peer fire from
   complete state.

Window triggers on the promoted leader are suppressed between steps 2 and
5 so no window can fire from partially restored state.

Cascades: if the promoted leader itself dies mid-recovery, the recovery
aborts (the partially restored state died with it) and retries on the
next survivor once the cluster has fenced the dead leader — every merge
is ledger-deduplicated, so the retry is idempotent.  A *completed*
recovery stays "undurable" until the new leader commits a checkpoint
captured after it; a leader crash inside that window re-queues the
victim's recovery.  If a victim's checkpoint buddy is dead, restore
falls back to the empty deployment checkpoint (full input replay).

:class:`~repro.faults.snapshots.SnapshotCoordinator` subclasses this
class and changes only when a cut checkpoints, which checkpoint a
takeover restores, and the in-band marker hooks.
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Any, Optional

from repro.common.errors import RecoveryError
from repro.core.costs import quantize_working_set
from repro.core.system import STRATEGY_EPOCH_BUDDY
from repro.faults.checkpoint import Checkpoint
from repro.simnet.kernel import Timeout
from repro.simnet.trace import trace
from repro.state.epoch import EpochDelta
from repro.state.lss import LogStructuredStore
from repro.state.partition import Handoff
from repro.state.ssb import DELTA_HEADER_BYTES


class _RecoveryAborted(Exception):
    """The promoted leader died mid-recovery; retry on the next survivor."""


class EpochBuddyRecovery:
    """Per-cut buddy checkpoints and the takeover of a fenced executor."""

    strategy = STRATEGY_EPOCH_BUDDY

    def __init__(self, injector: Any, directory: Any, executors: list[Any]):
        # A weak back-reference: the injector holds this protocol.
        self.injector = weakref.proxy(injector)
        self.sim = injector.sim
        self.checkpoints = injector.checkpoints
        #: The partition directory whose terms a takeover bumps.
        self.directory = directory
        self.executors = list(executors)
        self.query_plan = executors[0].plan
        #: Per executor: one flow-position snapshot per epoch-ship call.
        self._cuts: dict[int, list[list[int]]] = {}
        #: Retained deltas by (from_executor, partition), in epoch order.
        #: Helpers keep every shipped delta (un-pruned; see docs) so a
        #: promoted leader can re-merge anything a crash left in flight.
        self._retained: dict[tuple[int, int], list[EpochDelta]] = {}
        # Executor id -> number of in-flight recoveries it is the
        # promoted leader of.  A refcount, not a set: concurrent
        # recoveries (a cascade) can promote the same survivor, and one
        # completing must not lift the window-fire suppression the other
        # still depends on.
        self._suppressed: dict[int, int] = {}
        #: partition -> victim whose in-flight recovery owns its restore.
        self._recovering: dict[int, int] = {}
        #: victim -> {leader, led, completed_at}: recoveries whose result
        #: lives only in the new leader's memory (no checkpoint captured
        #: after completion has committed yet).
        self._undurable: dict[int, dict] = {}
        #: victim -> checkpoint its completed recovery restored from (the
        #: committed-output cut; later post-mortem checkpoint commits must
        #: not move it, or replayed output would double-count).
        self._restored_from: dict[int, Checkpoint] = {}
        for executor in self.executors:
            self._cuts[executor.executor_id] = []
            self.checkpoints.install_initial(
                executor.executor_id, len(executor.flows)
            )

    def arm(self) -> None:
        """Epoch-buddy checkpoints ride the epoch cuts: no driver process."""

    def member_finished(self, member: int) -> bool:
        """Whether executor ``member`` has finalized."""
        executor = self.executors[member]
        return executor._finalized or executor.finished.fired

    # -- epoch cuts (called by every executor at every boundary) ------------
    def on_cut(self, executor: Any, deltas: list[EpochDelta], final: bool):
        """Record a boundary; checkpoint per the recovery strategy.

        Called synchronously from ``_enqueue_epoch_ship`` — the positions,
        the collected deltas, and any checkpoint snapshot all describe the
        same simulated instant, which is what makes the cut consistent.
        The return value is the :class:`~repro.core.executor.SnapshotMarker`
        the shipper threads must emit right after this cut's deltas, or
        None (always None under epoch-buddy).
        """
        executor_id = executor.executor_id
        if executor_id in self.injector.crashed:
            return None
        cuts = self._cuts[executor_id]
        cuts.append(list(executor._flow_pos))
        for delta in deltas:
            self._retained.setdefault(
                (executor_id, delta.partition), []
            ).append(delta)
        return self.checkpoint_cut(executor, len(cuts) - 1, final)

    def checkpoint_cut(self, executor: Any, boundary: int, final: bool):
        """Epoch-buddy captures a checkpoint at every cut."""
        self._capture(
            executor, boundary, f"ckpt.exec{executor.executor_id}.b{boundary}"
        )
        return None

    def _capture(self, executor: Any, boundary: int, name: str) -> Checkpoint:
        """Capture a checkpoint now and replicate it to the buddy (process
        ``name``); its commit may make completed recoveries durable."""
        checkpoint = Checkpoint.capture(executor, boundary=boundary)
        checkpoint.captured_at = self.sim.now
        self.checkpoints.add(checkpoint)
        self.sim.process(
            self.injector.replicate(checkpoint, self._release_undurable),
            name=name,
        )
        return checkpoint

    # -- in-band snapshot hooks (called by the merge tasks) -----------------
    def on_marker(self, executor: Any, peer_id: int, marker: Any) -> None:
        """A barrier marker arrived in-band at ``executor`` (none here)."""

    def intercept(
        self, executor: Any, peer_id: int, delta: EpochDelta, ingest_times: Any
    ) -> bool:
        """True if the delta was spilled for snapshot alignment (the
        merge task must skip it; it merges at the capture instant)."""
        return False

    def on_channel_closed(self, dst_id: int, src_id: int) -> None:
        """(dst, src) delivered EOS/DoneToken or reset: no marker is coming."""

    def _release_undurable(self, checkpoint: Checkpoint) -> None:
        """A committed checkpoint may make completed recoveries durable.

        A victim's recovered state is only as durable as its new
        leader's first checkpoint captured *after* the recovery
        completed: once that commits, a later crash of the leader
        restores the merged state from the leader's own checkpoint and
        the victim's recovery never needs re-running.
        """
        if checkpoint.captured_at is None:
            return
        for victim in sorted(self._undurable):
            rec = self._undurable[victim]
            if (
                rec["leader"] == checkpoint.executor_id
                and checkpoint.captured_at >= rec["completed_at"]
            ):
                del self._undurable[victim]
                trace(
                    self.sim, "fault",
                    f"recovery of exec {victim} now durable",
                    leader=checkpoint.executor_id,
                    boundary=checkpoint.boundary,
                )

    # -- crash and fence ------------------------------------------------------
    def on_crash(self, victim: int) -> None:
        """The victim's schedulers are halted; nothing else to abort."""

    def triggers_suppressed(self, executor_id: int) -> bool:
        """Whether ``executor_id`` must not fire windows (mid-recovery)."""
        return self._suppressed.get(executor_id, 0) > 0

    def _suppress(self, executor_id: int) -> None:
        self._suppressed[executor_id] = self._suppressed.get(executor_id, 0) + 1

    def _unsuppress(self, executor_id: int) -> None:
        count = self._suppressed.get(executor_id, 0)
        if count <= 1:
            self._suppressed.pop(executor_id, None)
        else:
            self._suppressed[executor_id] = count - 1

    def on_fence(self, victim: int, proposer: int) -> None:
        """A quorum-backed fence of ``victim`` committed: take it over."""
        # Completed-but-undurable recoveries whose state lived only in
        # this victim's memory must be redone from their own checkpoints.
        for undurable_victim in sorted(self._undurable):
            rec = self._undurable[undurable_victim]
            if rec["leader"] != victim:
                continue
            del self._undurable[undurable_victim]
            self.injector.recovery_pending.add(undurable_victim)
            for partition in rec["led"]:
                self._recovering[partition] = undurable_victim
            trace(
                self.sim, "fault",
                f"re-queueing undurable recovery of exec {undurable_victim}",
                dead_leader=victim,
            )
            self.sim.process(
                self._takeover_proc(undurable_victim, rec["led"]),
                name=f"takeover.exec{undurable_victim}.redo",
            )
        # Partitions mid-restore by another victim's in-flight recovery
        # stay owned by it — its retry (also triggered by this fence, if
        # this victim was its promoted leader) restores them.
        led = [
            p for p in self.directory.partitions_led_by(victim)
            if self._recovering.get(p) in (None, victim)
        ]
        for partition in led:
            self._recovering[partition] = victim
        self.injector.membership.announce_death(victim, proposer)
        self.sim.process(
            self._takeover_proc(victim, led), name=f"takeover.exec{victim}"
        )

    def _takeover_proc(self, victim: int, led: list[int]):
        """Drive the victim's recovery to completion, surviving cascades.

        ``led`` is the fence-time snapshot of the partitions this
        takeover owns — ``partitions_led_by`` is *not* re-read on retry,
        because an aborted attempt may already have reassigned them to a
        now-dead leader.
        """
        injector = self.injector
        info = injector.recovery_info[victim]
        while True:
            alive = injector.alive()
            if not alive:
                raise RecoveryError("no surviving executor to promote")
            new_leader = min(alive)
            info["promoted"] = new_leader
            trace(
                self.sim, "fault", f"recovering exec {victim}",
                promoted=new_leader,
            )
            try:
                yield from self._recovery_body(victim, new_leader, led)
                return
            except _RecoveryAborted:
                info["aborted_recoveries"] = info.get("aborted_recoveries", 0) + 1
                self._unsuppress(new_leader)
                trace(
                    self.sim, "fault",
                    f"recovery of exec {victim} aborted (leader {new_leader} died)",
                )
                # Retry only once the cluster itself has fenced the dead
                # leader — recovery must not outrun detection.
                while not injector.takeover_started(new_leader):
                    yield Timeout(injector.watchdog_period_s)

    def _abort_if_dead(self, victim: int, new_leader: int) -> None:
        if new_leader in self.injector.crashed:
            raise _RecoveryAborted(
                f"leader {new_leader} died recovering {victim}"
            )

    def restorable(self, victim: int) -> Optional[Checkpoint]:
        """The newest committed checkpoint of ``victim`` (a subclass may
        find none usable and return None)."""
        return self.checkpoints.latest_committed(victim)

    def _restorable_checkpoint(self, victim: int) -> Checkpoint:
        """The newest checkpoint of ``victim`` that is actually fetchable.

        Committed checkpoints physically live on the buddy node; if the
        buddy is dead they are unreachable and restore falls back to the
        empty deployment checkpoint — boundary -1, full input replay.
        """
        buddy = (victim + 1) % len(self.executors)
        if buddy != victim and buddy in self.injector.crashed:
            return self.checkpoints.initial_for(victim)
        checkpoint = self.restorable(victim)
        if checkpoint is None:
            return self.checkpoints.initial_for(victim)
        return checkpoint

    # -- the recovery protocol ----------------------------------------------
    def _recovery_body(self, victim: int, new_leader: int, led: list[int]):
        """One recovery attempt; raises :class:`_RecoveryAborted` if the
        promoted leader dies mid-flight (every merge below is
        ledger-deduplicated, so the retry on the next survivor is
        idempotent)."""
        injector = self.injector
        cluster = injector.cluster
        crashed = injector.crashed
        info = injector.recovery_info[victim]
        nl_exec = self.executors[new_leader]
        core = nl_exec.node.core(0)
        self._suppress(new_leader)

        checkpoint = self._restorable_checkpoint(victim)
        info["checkpoint_boundary"] = checkpoint.boundary

        # Charge the checkpoint's transfer from the buddy to the promoted
        # leader (skipped when the promoted leader *is* the buddy, or
        # when restore fell back to the empty deployment checkpoint).
        buddy = self.executors[(victim + 1) % len(self.executors)]
        if (
            buddy.executor_id != new_leader
            and buddy.executor_id not in crashed
            and checkpoint.nbytes
        ):
            yield from cluster.link(buddy.node.index, nl_exec.node.index).send(
                checkpoint.nbytes
            )
            self._abort_if_dead(victim, new_leader)

        # --- atomic install: the checkpoint's handoff + retained merge ---
        # No simulated time may pass inside this block.  Reassignment and
        # the retained-backlog merge must share one instant: any delta a
        # helper collects strictly after it routes to the new leader over
        # the normal channel, so the per-helper epoch sequences stay dense.
        restored = {
            partition: (
                self.directory.leader_of_partition(partition),
                list(checkpoint.partitions.get(partition, [])),
            )
            for partition in led
        }
        nl_exec.install(Handoff(
            restored, ledger=checkpoint.ledger,
            hints=checkpoint.last_contribution.items(), windows=checkpoint.pending,
        ))
        restore_pairs = sum(len(pairs) for _src, pairs in restored.values())
        retained_windows: set[int] = set()
        retained_bytes_by_src: dict[int, int] = {}
        retained_merged = 0
        for partition in led:
            for source in sorted(e.executor_id for e in self.executors):
                for delta in self._retained.get((source, partition), []):
                    # Retained deltas carry their original watermarks, but
                    # the promoted leader's clock entries for the helpers
                    # must only advance through their live channels (their
                    # in-flight deltas to *this* executor may still lag),
                    # so the backlog merges watermark-neutral.
                    fresh = nl_exec.handle.merge_delta(
                        dataclasses.replace(delta, watermark=float("-inf"))
                    )
                    if fresh:
                        retained_merged += 1
                        injector.note_partition_commit(partition, new_leader)
                        retained_bytes_by_src[source] = (
                            retained_bytes_by_src.get(source, 0) + delta.nbytes
                        )
                        retained_windows.update(delta.windows)
        if nl_exec.trigger is not None:
            nl_exec.trigger.restore_pending(retained_windows)
        # --- end of the atomic instant ---

        info["restored_pairs"] = restore_pairs
        info["retained_deltas_merged"] = retained_merged

        # Pay for the retained-backlog transfers and the restore CPU after
        # the fact (a simulation simplification, documented in
        # docs/fault_tolerance.md): the state is consistent the moment it
        # is installed, and recovery completion waits for these charges.
        for source in sorted(retained_bytes_by_src):
            if source == new_leader:
                continue
            src_node = self.executors[source].node.index
            yield from cluster.link(src_node, nl_exec.node.index).send(
                retained_bytes_by_src[source]
            )
            self._abort_if_dead(victim, new_leader)
        if restore_pairs:
            merge_cost = nl_exec.node.cost_model.op(
                nl_exec.costs.merge_pair,
                quantize_working_set(float(checkpoint.nbytes)),
                nl_exec.costs.merge_lines,
            )
            yield from core.execute(merge_cost, float(restore_pairs))
            self._abort_if_dead(victim, new_leader)

        # --- re-deliver the victim's own retained deltas -------------------
        # The victim may have collected (and therefore retained) epochs it
        # never finished shipping; survivors' ledgers dedupe what they
        # already merged and admit the rest, with original watermarks (the
        # victim really did ship/intend them).
        redelivered = 0
        for (source, partition), deltas in sorted(self._retained.items()):
            if source != victim:
                continue
            leader = self.directory.leader_of_partition(partition)
            if leader in crashed:
                continue  # that leader's own recovery merges these
            target = self.executors[leader]
            if leader != new_leader:
                total = sum(d.nbytes for d in deltas)
                if total:
                    link = cluster.link(nl_exec.node.index, target.node.index)
                    yield from link.send(total)
                    self._abort_if_dead(victim, new_leader)
                    # A second crash may have landed during the transfer:
                    # that leader's own recovery merges these.
                    if (
                        leader in crashed
                        or self.directory.leader_of_partition(partition) != leader
                    ):
                        continue
            for delta in deltas:
                fresh = target.handle.merge_delta(delta)
                if fresh:
                    redelivered += 1
                    injector.note_partition_commit(partition, leader)
                    if target.trigger is not None:
                        target.trigger.note_slices(delta.windows)
        info["victim_deltas_redelivered"] = redelivered

        # --- replay the victim's input from the checkpoint cut -------------
        yield from self._replay_input(victim, new_leader, checkpoint, info, led)
        self._abort_if_dead(victim, new_leader)

        # --- finish: the victim will never contribute again -----------------
        for executor in self.executors:
            if executor.executor_id in crashed:
                continue
            executor.backend.clock.advance(victim, float("inf"))
            executor._done_peers.add(victim)
        injector.recovery_pending.discard(victim)
        self._unsuppress(new_leader)
        self._restored_from[victim] = checkpoint
        for partition in led:
            if self._recovering.get(partition) == victim:
                del self._recovering[partition]
        # The merged state exists only in the new leader's memory until
        # its next checkpoint (captured from now on) commits; a leader
        # crash inside that window re-runs this recovery.
        self._undurable[victim] = {
            "leader": new_leader,
            "led": list(led),
            "completed_at": self.sim.now,
        }
        info["recovered_at"] = self.sim.now
        info["recovery_s"] = self.sim.now - info["crashed_at"]
        trace(
            self.sim, "fault", f"recovery of exec {victim} complete",
            promoted=new_leader, recovery_s=info["recovery_s"],
        )
        for executor in self.executors:
            if executor.executor_id in crashed:
                continue
            yield from executor._check_triggers(executor.node.core(0))
            executor._maybe_finalize_soon()

    def _replay_input(
        self, victim: int, new_leader: int, checkpoint: Checkpoint, info: dict,
        restored: list[int],
    ):
        """Re-process the victim's flows from the checkpoint's positions.

        Segments between recorded cuts reproduce the victim's original
        epochs under their original identities — the ledgers of the
        surviving leaders admit exactly the ones that never arrived.  The
        final segment (everything past the last recorded cut) continues
        the sequence, covering input the victim never got to process.

        ``restored`` is the set of partitions the victim led (restored
        here from its checkpoint): only for those may replayed partials
        bypass the ledger and be absorbed directly — the checkpoint plus
        the replay IS their state.  Partials for every other partition,
        including the promoted leader's own, travel as epoch deltas under
        the victim's identity so the target's ledger dedupes the epochs
        the victim already shipped before crashing.
        """
        injector = self.injector
        nl_exec = self.executors[new_leader]
        dead_exec = self.executors[victim]
        core = nl_exec.node.core(0)
        cost_model = nl_exec.node.cost_model
        handle = nl_exec.handle
        crdt = handle.crdt
        led_set = set(restored)
        plan = dead_exec.plan

        flows = dead_exec.flows
        cuts = self._cuts[victim]
        segments: list[tuple[list[int], int]] = []
        for boundary in range(checkpoint.boundary + 1, len(cuts)):
            segments.append((cuts[boundary], boundary))
        segments.append(([len(flow) for flow in flows], len(cuts)))

        positions = list(checkpoint.positions) or [0] * len(flows)
        replayed_batches = 0
        replayed_records = 0
        reshipped = 0
        for end_positions, epoch in segments:
            staged: dict[int, LogStructuredStore] = {}
            touched_led: set[int] = set()
            for thread, flow in enumerate(flows):
                start = positions[thread] if thread < len(positions) else 0
                end = end_positions[thread] if thread < len(end_positions) else start
                for stream_name, batch in flow[start:end]:
                    pipeline = plan.pipeline_for(stream_name)
                    read_cost = cost_model.cache.streaming_cost(batch.wire_bytes)
                    yield from core.execute(read_cost, 1.0)
                    self._abort_if_dead(victim, new_leader)
                    result = pipeline.process_batch(batch)
                    replayed_batches += 1
                    replayed_records += len(batch)
                    if not result.survivors:
                        continue
                    update_cost = cost_model.op(
                        nl_exec.costs.update,
                        quantize_working_set(nl_exec._ws_bytes + 4096),
                        nl_exec.costs.update_lines,
                    )
                    yield from core.execute(update_cost, float(result.survivors))
                    self._abort_if_dead(victim, new_leader)
                    now = self.sim.now
                    for partition, keys, windows, partials in handle.partition_columns(
                        result.group_windows, result.group_keys, result.group_partials
                    ):
                        if partition in led_set:
                            handle.store_for(partition).absorb_columns(keys, windows, partials)
                            if windows is not None:
                                touched = set(windows.tolist())
                                touched_led |= touched
                                nl_exec.fold_hints((window, now) for window in touched)
                            continue
                        if partition not in staged:
                            staged[partition] = LogStructuredStore(
                                crdt, name=f"replay.p{partition}@e{victim}"
                            )
                        staged[partition].absorb_columns(keys, windows, partials)
            if touched_led and nl_exec.trigger is not None:
                nl_exec.trigger.restore_pending(touched_led)
            # Ship this segment's remote partials under the victim's
            # original epoch identity for the segment.
            for partition in sorted(staged):
                # The staged partials in first-arrival order, priced as
                # a helper's delta is.
                keys, key_windows, payloads, nbytes = staged[partition].ship_delta()
                nbytes += DELTA_HEADER_BYTES
                delta = EpochDelta(
                    operator_id=plan.operator_id,
                    partition=partition,
                    from_executor=victim,
                    epoch=epoch,
                    keys=keys,
                    key_windows=key_windows,
                    payloads=payloads,
                    nbytes=nbytes,
                    watermark=float("-inf"),
                )
                leader = self.directory.leader_of_partition(partition)
                # Retain the replayed delta like an original cut delta,
                # whether or not it can ship right now: a merge into a
                # live leader exists only in that leader's memory, and if
                # the leader crashes before checkpointing it, *its*
                # recovery re-merges this backlog.  The retained list
                # stays dense per (victim, partition) — originals cover
                # epochs 0..c, replays b+1..c+1 — so ledger admission
                # dedupes every epoch that also landed live.
                self._retained.setdefault(
                    (victim, partition), []
                ).append(delta)
                if leader in injector.crashed:
                    # The partition is between leaders (a cascade is in
                    # flight); whichever recovery ends up restoring it
                    # merges the retained backlog.
                    continue
                target = self.executors[leader]
                if leader != new_leader:
                    link = injector.cluster.link(nl_exec.node.index, target.node.index)
                    yield from link.send(nbytes)
                    self._abort_if_dead(victim, new_leader)
                fresh = target.handle.merge_delta(delta)
                if fresh:
                    reshipped += 1
                    injector.note_partition_commit(partition, leader)
                    if target.trigger is not None:
                        if leader == new_leader:
                            target.trigger.restore_pending(delta.windows)
                        else:
                            target.trigger.note_slices(delta.windows)
            positions = list(end_positions)
        info["replayed_batches"] = replayed_batches
        info["replayed_records"] = replayed_records
        info["reshipped_deltas"] = reshipped
        yield Timeout(0.0)

    # -- results --------------------------------------------------------------
    def committed_results(self, executor_id: int) -> Checkpoint:
        """The committed output of a crashed executor.

        This is the exact checkpoint its recovery restored from — not
        ``latest_committed``, because a replication that was in flight at
        crash time may commit *after* recovery already replayed past its
        cut, and counting that later checkpoint would double-count the
        replayed output.
        """
        if executor_id not in self.injector.crashed:
            raise RecoveryError(f"executor {executor_id} did not crash")
        restored = self._restored_from.get(executor_id)
        if restored is not None:
            return restored
        return self.checkpoints.latest_committed(executor_id)
