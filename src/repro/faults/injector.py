"""The fault injector: applies a :class:`FaultPlan` and drives recovery.

The injector is attached to the simulation kernel (``sim.faults``), which
flips every layer of the stack into its fault-tolerant code path:

* the RDMA layer consults :meth:`should_drop_write` per WRITE and the
  producer endpoints switch to ACK-tracked transfers with bounded
  exponential-backoff retransmission;
* the channel layer arms credit timeouts and the poison/reset handshake;
* executors run a watchdog coroutine that reacts to peer-death suspicion;
* the injector itself records epoch cuts (``note_epoch_cut``): flow
  positions, retained deltas, and replicated checkpoints — the raw
  material of recovery.

Detection and promotion are **not** oracle-driven: a
:class:`~repro.membership.MembershipService` runs one agent per executor
over the simulated network.  Heartbeat datagrams feed per-node
phi-accrual detectors (views can disagree across a partition); a
suspicion becomes a takeover only after a *quorum* of the membership
acks the fence and a confirmation grace elapses (so a healed partition
aborts the fence).  The fence bumps the term of every partition that
changes hands; the commit registry proves no two executors ever commit
deltas for the same partition under the same term.

Recovery after a fence commits (paper Sec. 7.2.2 frames epochs as the
classic synchronisation point for exactly this):

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
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.common.errors import FaultError, RecoveryError
from repro.core.costs import quantize_working_set
from repro.core.system import (
    RECOVERY_STRATEGIES,
    STRATEGY_ASYNC_SNAPSHOT,
    STRATEGY_EPOCH_BUDDY,
)
from repro.core.windows import SessionWindows, SlidingWindow
from repro.faults.checkpoint import Checkpoint, CheckpointStore
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.membership import MembershipService, TermRegistry, quorum_size
from repro.simnet.kernel import Simulator, Timeout
from repro.simnet.trace import trace
from repro.state.epoch import EpochDelta
from repro.state.partition import Handoff
from repro.state.ssb import DELTA_HEADER_BYTES

# Default fault-handling tunables; the chaos harness scales these to the
# workload's horizon.  All in simulated seconds.
DEFAULT_DETECT_S = 1e-3
DEFAULT_WATCHDOG_PERIOD_S = 5e-4
DEFAULT_RTO_S = 2e-5
DEFAULT_CREDIT_TIMEOUT_S = 5e-4
DEFAULT_MAX_RETRIES = 8

# Membership timing, derived from detect_s so one knob scales the whole
# detection pipeline: with heartbeats every detect_s/8 and threshold 3.0,
# phi crosses after ~3·ln(10)·(detect_s/8) ≈ 0.86·detect_s of silence;
# quorum polling plus the confirm grace lands the fence near
# ~1.4·detect_s after the fault.
HEARTBEAT_DIVISOR = 8.0
PHI_THRESHOLD = 3.0
CONFIRM_FRACTION = 0.5
ACK_TIMEOUT_FRACTION = 0.25

#: Fault kinds that act purely on the data plane (NIC rates, posted
#: WRITEs, credit machinery).  They need no checkpoints, membership, or
#: promotion, so any engine whose channels consult ``sim.faults`` can
#: absorb them via :meth:`FaultInjector.register_data_plane`.
DATA_PLANE_KINDS = frozenset(
    {
        FaultKind.NIC_FLAP,
        FaultKind.DROP_CHUNK,
        FaultKind.CREDIT_STARVATION,
        FaultKind.SLOW_NODE,
        FaultKind.JITTER,
    }
)


@dataclasses.dataclass
class FaultTarget:
    """One injectable unit of a non-Slash deployment.

    The generic engine path: engines without Slash's executor
    objects describe each node's data plane as the node itself plus its
    inbound consumer endpoints, and the injector aims events at these.
    """

    node: Any
    in_channels: list
    #: Extra bandwidth pipes a NIC flap must also degrade (e.g. the
    #: IPoIB fabric's per-node tx/rx pipes, which sit beside the node's
    #: RDMA NIC pipes).
    extra_pipes: list = dataclasses.field(default_factory=list)


class _RecoveryAborted(Exception):
    """The promoted leader died mid-recovery; retry on the next survivor."""


class FaultInjector:
    """Applies a fault plan to one simulation and orchestrates recovery."""

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        *,
        detect_s: float = DEFAULT_DETECT_S,
        watchdog_period_s: float = DEFAULT_WATCHDOG_PERIOD_S,
        rto_s: float = DEFAULT_RTO_S,
        credit_timeout_s: float = DEFAULT_CREDIT_TIMEOUT_S,
        max_retries: int = DEFAULT_MAX_RETRIES,
        strategy: str = STRATEGY_EPOCH_BUDDY,
        snapshot_interval_s: float | None = None,
    ):
        if detect_s <= 0 or watchdog_period_s <= 0 or rto_s <= 0 or credit_timeout_s <= 0:
            raise FaultError("fault-handling timeouts must be positive")
        if max_retries < 1:
            raise FaultError(f"max_retries must be >= 1, got {max_retries}")
        if strategy not in RECOVERY_STRATEGIES:
            raise FaultError(
                f"unknown recovery strategy {strategy!r}; known: "
                f"{sorted(RECOVERY_STRATEGIES)}"
            )
        if snapshot_interval_s is not None and snapshot_interval_s <= 0:
            raise FaultError("snapshot_interval_s must be positive")
        self.sim = sim
        self.plan = plan
        self.detect_s = detect_s
        self.watchdog_period_s = watchdog_period_s
        self.rto_s = rto_s
        self.credit_timeout_s = credit_timeout_s
        self.max_retries = max_retries
        self.strategy = strategy
        #: Period of the marker rounds under async-snapshot; defaults to
        #: twice the detection budget so a round usually completes
        #: between fault and fence.
        self.snapshot_interval_s = (
            snapshot_interval_s if snapshot_interval_s is not None
            else 2.0 * detect_s
        )
        #: Chandy-Lamport round driver (Slash under async-snapshot).
        self.coordinator: Any = None
        #: Aligned-snapshot/global-restart controller (partitioned engines).
        self.partitioned: Any = None

        self.executors: list[Any] = []
        self.cluster: Any = None
        self.directory: Any = None
        self._node_to_exec: dict[int, int] = {}

        self.checkpoints = CheckpointStore()
        #: Per executor: one flow-position snapshot per epoch-ship call.
        self._cuts: dict[int, list[list[int]]] = {}
        #: Retained deltas by (from_executor, partition), in epoch order.
        #: Helpers keep every shipped delta (un-pruned; see docs) so a
        #: promoted leader can re-merge anything a crash left in flight.
        self._retained: dict[tuple[int, int], list[EpochDelta]] = {}

        self.crashed: set[int] = set()
        self._crash_time: dict[int, float] = {}
        self._recovery_pending: set[int] = set()
        # Executor id -> number of in-flight recoveries it is the
        # promoted leader of.  A refcount, not a set: concurrent
        # recoveries (a cascade) can promote the same survivor, and one
        # completing must not lift the window-fire suppression the other
        # still depends on.
        self._suppressed: dict[int, int] = {}
        self._recovery: dict[int, dict] = {}

        # Membership, fencing, and multi-fault bookkeeping.
        self.membership: MembershipService | None = None
        self.terms = TermRegistry()
        #: Victims whose fence committed (takeover executing or done).
        self._takeover_started: set[int] = set()
        #: First fault instant per victim (crash time or partition onset);
        #: the zero point of the detection/promotion/MTTR columns.
        self._fault_at: dict[int, float] = {}
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
        #: Applied partition events, for the report.
        self._partitions: list[dict] = []

        # Drop/duplicate windows: target -> [start, end, remaining].
        self._drop_windows: dict[int, list[float]] = {}
        self._dup_windows: dict[int, list[float]] = {}

        self.stats = {
            "writes_dropped": 0,
            "deltas_duplicated": 0,
            "credit_timeouts": 0,
            "blackholed_sends": 0,
            "checkpoint_bytes_replicated": 0,
            "snapshot_rounds_started": 0,
            "snapshot_rounds_complete": 0,
            "snapshot_rounds_failed": 0,
            "snapshot_captures": 0,
            "snapshot_markers_seen": 0,
            "snapshot_deltas_spilled": 0,
            "snapshot_channel_deltas": 0,
        }

    # -- wiring ------------------------------------------------------------
    def register(self, cluster: Any, directory: Any, executors: list[Any]) -> None:
        """Bind the injector to a freshly built deployment."""
        self.directory = directory
        self.terms = TermRegistry(directory)
        self._bind_recovery(cluster, executors, executors[0].plan)
        for executor in executors:
            self._node_to_exec[executor.node.index] = executor.executor_id
            self._cuts[executor.executor_id] = []
            self.checkpoints.install_initial(
                executor.executor_id, len(executor.flows)
            )
        if self.strategy == STRATEGY_ASYNC_SNAPSHOT:
            from repro.faults.snapshots import SnapshotCoordinator

            self.coordinator = SnapshotCoordinator(self)

    def register_partitioned(self, cluster: Any, controller: Any) -> None:
        """Bind the injector to a partitioned deployment's recovery plane.

        ``controller`` is a
        :class:`~repro.faults.snapshots.PartitionedChaosController`; its
        per-node proxies become the injector's (and the membership
        service's) executors, so detection, quorum fencing, and the
        report pipeline are byte-identical to the Slash path.  The only
        strategy partitioned engines implement is async-snapshot —
        aligned marker rounds plus global restart.
        """
        if self.strategy != STRATEGY_ASYNC_SNAPSHOT:
            raise FaultError(
                "partitioned engines recover via async-snapshot only; "
                f"got strategy {self.strategy!r}"
            )
        self.partitioned = controller
        controller.bind(self)
        self._bind_recovery(cluster, controller.proxies, controller.ctx.plan)
        for index, proxy in enumerate(self.executors):
            self._node_to_exec[proxy.node.index] = index
            self._cuts[index] = []
            self.checkpoints.install_initial(index, 0)

    def _bind_recovery(
        self, cluster: Any, executors: list[Any], query_plan: Any
    ) -> None:
        """The wiring both recovery-plane registrations share: the
        deployment, the exactly-once guard and the membership service."""
        self.cluster = cluster
        self.executors = list(executors)
        self.plan.validate(len(self.executors))
        # Partitions can fence a live node (asymmetric cut) and therefore
        # trigger the same crash-recovery path as a crash.  Recovery
        # re-fires restored windows (a takeover, or the partitioned
        # engines' global restart); that is only exactly-once when a fire
        # *extracts* all of a window's state (non-overlapping windows).
        # Overlapping sliding windows and session windows share state
        # across fires, so a re-fire would emit slice-incomplete values —
        # reject those up front.
        recovers = bool(self.plan.crash_targets()) or any(
            e.kind in (FaultKind.NET_PARTITION, FaultKind.ASYM_PARTITION)
            for e in self.plan
        )
        window = query_plan.window
        if recovers and (
            query_plan.is_join
            or isinstance(window, SessionWindows)
            or (isinstance(window, SlidingWindow) and window.slices_per_window > 1)
        ):
            raise FaultError(
                "leader-crash recovery supports windowed aggregations with "
                "non-overlapping windows (tumbling, or sliding with "
                "slide == size); use a non-crash fault for this query"
            )
        self.membership = MembershipService(
            self,
            heartbeat_period_s=self.detect_s / HEARTBEAT_DIVISOR,
            phi_threshold=PHI_THRESHOLD,
            confirm_s=self.detect_s * CONFIRM_FRACTION,
            ack_timeout_s=self.detect_s * ACK_TIMEOUT_FRACTION,
        )

    def register_data_plane(self, cluster: Any, targets: list[Any]) -> None:
        """Bind the injector to a deployment without a recovery plane.

        The generic engine path (e.g. Flink): ``targets`` is one
        :class:`FaultTarget` per node.  Only :data:`DATA_PLANE_KINDS`
        are allowed — there are no checkpoints, membership agents, or
        promotion here, so crash/partition/stall events are rejected up
        front rather than silently doing nothing.
        """
        unsupported = {e.kind for e in self.plan} - DATA_PLANE_KINDS
        if unsupported:
            raise FaultError(
                "data-plane fault injection supports "
                f"{sorted(k.value for k in DATA_PLANE_KINDS)}; plan contains "
                f"{sorted(k.value for k in unsupported)}"
            )
        self.plan.validate(len(targets))
        self.cluster = cluster
        self.executors = list(targets)
        for index, target in enumerate(targets):
            self._node_to_exec[target.node.index] = index

    def arm(self) -> None:
        """Launch the membership agents and one process per fault event."""
        if self.membership is not None:
            self.membership.start()
        if self.coordinator is not None:
            self.sim.process(
                self.coordinator.driver(), name="snapshot.coordinator"
            )
        if self.partitioned is not None:
            self.sim.process(
                self.partitioned.driver(), name="snapshot.controller"
            )
        for index, event in enumerate(self.plan):
            self.sim.process(
                self._event_proc(event), name=f"fault.{event.kind.value}.{index}"
            )

    # -- queries from the stack --------------------------------------------
    def is_crashed(self, executor_id: int) -> bool:
        """Whether ``executor_id`` has been killed by the plan."""
        return executor_id in self.crashed

    def is_crashed_node(self, node_index: int) -> bool:
        """Whether the executor on node ``node_index`` is dead."""
        return self._node_to_exec.get(node_index, -1) in self.crashed

    def alive(self) -> list[int]:
        """Surviving executor ids, ascending."""
        return [
            e.executor_id for e in self.executors
            if e.executor_id not in self.crashed
        ]

    def deployment_finished(self) -> bool:
        """Whether every non-crashed executor has finalized (agents exit)."""
        if not self.executors:
            return False
        return all(
            e.executor_id in self.crashed or e._finalized or e.finished.fired
            for e in self.executors
        )

    def takeover_started(self, victim: int) -> bool:
        """Whether a quorum-backed fence of ``victim`` already executed."""
        return victim in self._takeover_started

    def link_blocked(self, src_node: int, dst_node: int) -> bool:
        """Whether a partition currently cuts ``src -> dst``."""
        if self.cluster is None:
            return False
        return not self.cluster.can_reach(src_node, dst_node)

    def heal_wait(self, src_node: int, dst_node: int):
        """Waitable signal that fires when ``src -> dst`` heals."""
        return self.cluster.heal_wait(src_node, dst_node)

    def note_quorum(self, victim: int, proposer: int, votes: int, now: float) -> None:
        """A fence proposal for ``victim`` reached quorum (timing metric)."""
        info = self._recovery.setdefault(victim, {})
        info.setdefault("quorum_at", now)
        info.setdefault("quorum_votes", votes)
        info.setdefault("quorum_proposer", proposer)

    def check_quorum_feasible(self) -> None:
        """Oracle fail-fast: raise rather than let a majority loss hang.

        Called by the membership service after a rejected fence.  A fence
        needs a majority of the membership minus *committed* fences; dead
        members never ack, and the membership only shrinks when a fence
        commits — so once fewer live members remain than that majority,
        no proposal can ever succeed again.  That wedge is the correct
        split-brain-safe outcome for a cluster that lost its majority,
        but simulated forever it is an infinite heartbeat loop; the
        omniscient injector turns it into a diagnosable failure.
        """
        if not self.crashed:
            return  # rejections without real deaths (e.g. victim-side
            # minority during an asymmetric cut) resolve on their own
        fenced = self._takeover_started & self.crashed
        members = [
            e.executor_id for e in self.executors
            if e.executor_id not in fenced
        ]
        needed = quorum_size(len(members))
        live = [m for m in members if m not in self.crashed]
        if len(live) < needed:
            raise FaultError(
                f"quorum permanently lost: {len(live)} of {len(members)} "
                f"unfenced members alive but fencing needs {needed} "
                f"(crashed={sorted(self.crashed)}, fenced={sorted(fenced)}); "
                "the cluster is wedged split-brain-safe and cannot recover"
            )

    def note_partition_commit(self, partition: int, executor_id: int) -> None:
        """Record a fresh delta merge in the (partition, term) registry.

        A fenced executor's same-instant stragglers are ignored — its
        schedulers halted at the fence, so anything arriving under its id
        afterwards is a stale merge that lost the race, not a commit.
        """
        if executor_id in self.crashed:
            return
        self.terms.note_commit(partition, executor_id)

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

    def holds_finalize(self, executor_id: int) -> bool:
        """Whether finalisation is held open (a recovery is in flight).

        Every survivor waits: the promoted leader because its windows are
        incomplete, the others because recovery may still re-deliver the
        victim's retained deltas to them.
        """
        return bool(self._recovery_pending)

    def should_drop_write(self, src_node_index: int, nbytes: int) -> bool:
        """Consult (and consume) the drop budget for a posted WRITE."""
        executor_id = self._node_to_exec.get(src_node_index)
        window = self._drop_windows.get(executor_id)
        if window is None:
            return False
        start, end, remaining = window
        if remaining <= 0 or not start <= self.sim.now <= end:
            return False
        window[2] = remaining - 1
        self.stats["writes_dropped"] += 1
        trace(self.sim, "fault", f"dropped WRITE from node {src_node_index}", bytes=nbytes)
        return True

    def should_duplicate_delta(self, executor_id: int) -> bool:
        """Consult (and consume) the duplicate budget for a shipped delta."""
        window = self._dup_windows.get(executor_id)
        if window is None:
            return False
        start, end, remaining = window
        if remaining <= 0 or not start <= self.sim.now <= end:
            return False
        window[2] = remaining - 1
        self.stats["deltas_duplicated"] += 1
        trace(self.sim, "fault", f"duplicating delta from exec {executor_id}")
        return True

    def note_credit_timeout(self, channel_name: str) -> None:
        """A producer's credit wait timed out (accounting only)."""
        self.stats["credit_timeouts"] += 1

    def note_blackholed_send(self, channel_name: str) -> None:
        """A send to a declared-dead peer was dropped (accounting only)."""
        self.stats["blackholed_sends"] += 1

    # -- epoch cuts (called by every executor at every boundary) ------------
    def note_epoch_cut(self, executor: Any, deltas: list[EpochDelta], final: bool):
        """Record a boundary; checkpoint per the active recovery strategy.

        Called synchronously from ``_enqueue_epoch_ship`` — the positions,
        the collected deltas, and any checkpoint snapshot all describe the
        same simulated instant, which is what makes the cut consistent.

        Under epoch-buddy, every cut captures a checkpoint (returns
        None).  Under async-snapshot, the coordinator captures only at
        the cut that meets an outstanding marker round, and the return
        value is the :class:`~repro.core.executor.SnapshotMarker` the
        shipper threads must emit right after this cut's deltas (or
        None when no round is waiting).
        """
        executor_id = executor.executor_id
        if executor_id in self.crashed:
            return None
        cuts = self._cuts[executor_id]
        cuts.append(list(executor._flow_pos))
        for delta in deltas:
            self._retained.setdefault(
                (executor_id, delta.partition), []
            ).append(delta)
        if self.coordinator is not None:
            return self.coordinator.on_cut(executor, len(cuts) - 1, final)
        checkpoint = Checkpoint.capture(executor, boundary=len(cuts) - 1)
        checkpoint.captured_at = self.sim.now
        self.checkpoints.add(checkpoint)
        self.sim.process(
            self._replicate_proc(checkpoint),
            name=f"ckpt.exec{executor_id}.b{checkpoint.boundary}",
        )
        return None

    # -- snapshot hooks (called by the merge tasks) --------------------------
    def note_snapshot_marker(self, executor: Any, peer_id: int, marker: Any) -> None:
        """A barrier marker arrived in-band at ``executor``."""
        if self.coordinator is not None:
            self.coordinator.on_marker(executor, peer_id, marker)

    def snapshot_intercept(
        self, executor: Any, peer_id: int, delta: EpochDelta, ingest_times: Any
    ) -> bool:
        """True if the delta was spilled for snapshot alignment (the
        merge task must skip it; it merges at the capture instant)."""
        if self.coordinator is None:
            return False
        return self.coordinator.intercept(executor, peer_id, delta, ingest_times)

    def note_channel_closed(self, dst_id: int, src_id: int) -> None:
        """(dst, src) delivered EOS/DoneToken or reset: no marker is coming."""
        if self.coordinator is not None:
            self.coordinator.on_channel_closed(dst_id, src_id)

    def _replicate_proc(self, checkpoint: Checkpoint):
        """Asynchronously copy a checkpoint to its buddy node."""
        executor = self.executors[checkpoint.executor_id]
        buddy = self.executors[
            (checkpoint.executor_id + 1) % len(self.executors)
        ]
        if buddy.executor_id != checkpoint.executor_id and checkpoint.nbytes:
            yield self.cluster.link(executor.node.index, buddy.node.index).send(
                checkpoint.nbytes
            )
        # The source may have died (or been fenced) mid-replication, or
        # the buddy holding the copy may be gone; an uncommitted
        # checkpoint must stay unusable, so commit only on full transfer
        # to a live buddy from a live source.
        if (
            checkpoint.executor_id in self.crashed
            or buddy.executor_id in self.crashed
        ):
            return
        checkpoint.committed_at = self.sim.now
        self.stats["checkpoint_bytes_replicated"] += checkpoint.nbytes
        self._release_undurable(checkpoint)
        yield Timeout(0.0)

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

    # -- event application --------------------------------------------------
    def _event_proc(self, event: FaultEvent):
        yield Timeout(event.at_s)
        trace(
            self.sim, "fault", f"applying {event.kind.value}",
            target=event.target, duration_s=event.duration_s,
        )
        if event.kind is FaultKind.NODE_CRASH:
            self._apply_crash(event.target)
        elif event.kind is FaultKind.NIC_FLAP:
            target = self.executors[event.target]
            node = target.node
            pipes = [node.nic_tx, node.nic_rx]
            pipes.extend(getattr(target, "extra_pipes", ()))
            for pipe in pipes:
                pipe.degrade(event.factor)
            yield Timeout(event.duration_s)
            for pipe in pipes:
                pipe.restore()
        elif event.kind is FaultKind.DROP_CHUNK:
            self._drop_windows[event.target] = [
                event.at_s, event.at_s + event.duration_s, float(event.count)
            ]
        elif event.kind is FaultKind.DUPLICATE_DELTA:
            self._dup_windows[event.target] = [
                event.at_s, event.at_s + event.duration_s, float(event.count)
            ]
        elif event.kind is FaultKind.STALL:
            executor = self.executors[event.target]
            until = self.sim.now + event.duration_s
            for scheduler in executor.schedulers:
                scheduler.pause_until(until)
        elif event.kind is FaultKind.CREDIT_STARVATION:
            executor = self.executors[event.target]
            endpoints = self._inbound_endpoints(executor)
            for consumer in endpoints:
                consumer.withhold_credits = True
            yield Timeout(event.duration_s)
            core = executor.node.core(0)
            for consumer in endpoints:
                consumer.withhold_credits = False
                yield from consumer.flush_withheld(core)
        elif event.kind is FaultKind.NET_PARTITION:
            yield from self._partition_proc(event, symmetric=True)
        elif event.kind is FaultKind.ASYM_PARTITION:
            yield from self._partition_proc(event, symmetric=False)
        elif event.kind is FaultKind.SLOW_NODE:
            # Gray failure: the node keeps running (heartbeats flow, no
            # fence) but every priced operation takes 1/factor longer.
            node = self.executors[event.target].node
            node.cost_model.slow_down(event.factor)
            yield Timeout(event.duration_s)
            node.cost_model.restore_speed()
        elif event.kind is FaultKind.JITTER:
            # Inflate the data-plane latency of the target's links (both
            # directions) to factor x nominal; datagrams stay untouched
            # so the failure detector never sees the fault.
            target_node = self.executors[event.target].node
            nic = target_node.config.nic
            extra = (event.factor - 1.0) * (
                nic.propagation_latency_s + self.cluster.config.switch_latency_s
            )
            if event.peer is not None:
                peers = [self.executors[event.peer].node.index]
            else:
                peers = [
                    e.node.index for e in self.executors
                    if e.node.index != target_node.index
                ]
            for peer in peers:
                self.cluster.set_extra_latency(target_node.index, peer, extra)
                self.cluster.set_extra_latency(peer, target_node.index, extra)
            yield Timeout(event.duration_s)
            for peer in peers:
                self.cluster.clear_extra_latency(target_node.index, peer)
                self.cluster.clear_extra_latency(peer, target_node.index)
        else:  # pragma: no cover - FaultKind is exhaustive
            raise FaultError(f"unhandled fault kind {event.kind!r}")

    @staticmethod
    def _inbound_endpoints(target: Any) -> list:
        """Credit-bearing inbound consumer endpoints of one target.

        Slash executors expose a peer-keyed ``_in_channels`` dict (flush
        order = sorted peer id, as before); generic
        :class:`FaultTarget`\\ s list their endpoints directly.  Local
        (same-node memcpy) channels have no credit messages to withhold
        and are skipped.
        """
        channels = getattr(target, "_in_channels", None)
        if channels is not None:
            endpoints = [consumer for _peer, consumer in sorted(channels.items())]
        else:
            endpoints = list(target.in_channels)
        return [c for c in endpoints if hasattr(c, "flush_withheld")]

    def _partition_proc(self, event: FaultEvent, *, symmetric: bool):
        """Cut the target's links for the event's duration, then heal.

        Symmetric: both directions between the target and every other
        node.  Asymmetric: only the target's *outbound* direction — the
        target keeps hearing everyone (so it suspects nobody), while the
        rest of the cluster loses its heartbeats and may fence it.
        """
        target = event.target
        target_node = self.executors[target].node.index
        others = sorted(
            e.node.index for e in self.executors if e.node.index != target_node
        )
        self._fault_at.setdefault(target, self.sim.now)
        record = {
            "kind": event.kind.value,
            "target": target,
            "start_s": self.sim.now,
            "end_s": self.sim.now + event.duration_s,
            "symmetric": symmetric,
        }
        self._partitions.append(record)
        for other in others:
            self.cluster.block(target_node, other)
            if symmetric:
                self.cluster.block(other, target_node)
        yield Timeout(event.duration_s)
        for other in others:
            self.cluster.unblock(target_node, other)
            if symmetric:
                self.cluster.unblock(other, target_node)
        record["healed_at"] = self.sim.now
        trace(
            self.sim, "fault", f"partition of exec {target} healed",
            kind=event.kind.value,
        )

    def _apply_crash(self, victim: int) -> None:
        """Halt the victim.  Detection and promotion are NOT triggered
        here — the membership agents must genuinely notice the silence,
        reach quorum, and fence the victim before any takeover runs."""
        executor = self.executors[victim]
        if executor._finalized or executor.finished.fired:
            trace(self.sim, "fault", f"crash of exec {victim} no-op (finished)")
            return
        now = self.sim.now
        self.crashed.add(victim)
        self._crash_time[victim] = now
        self._fault_at.setdefault(victim, now)
        self._recovery_pending.add(victim)
        if self.partitioned is not None:
            self.partitioned.on_crash(victim)
        else:
            for scheduler in executor.schedulers:
                scheduler.halt()
            if self.coordinator is not None:
                self.coordinator.on_crash(victim)
        info = self._recovery.setdefault(victim, {})
        info["crashed_at"] = now
        info["fault_at"] = self._fault_at[victim]

    # -- fencing and takeover -------------------------------------------------
    def execute_takeover(self, victim: int, *, proposer: int, votes: int) -> None:
        """A quorum-backed fence of ``victim`` committed: run the takeover.

        Called by the membership service after quorum + confirmation
        grace.  The victim may still be alive (asymmetric partition): it
        is administratively halted here — with the term bump, that is
        what makes fencing a healthy node safe.  Idempotent: concurrent
        proposals for the same victim execute exactly one takeover.
        """
        if victim in self._takeover_started:
            return
        executor = self.executors[victim]
        if executor._finalized or executor.finished.fired:
            self._takeover_started.add(victim)
            trace(self.sim, "fault", f"fence of exec {victim} no-op (finished)")
            return
        self._takeover_started.add(victim)
        now = self.sim.now
        if victim not in self.crashed:
            self._apply_crash(victim)
        info = self._recovery.setdefault(victim, {})
        info["detected_at"] = now
        info["promoted_at"] = now
        info["fenced_by"] = proposer
        info["votes"] = votes
        info.setdefault("fault_at", self._fault_at.get(victim, now))
        trace(
            self.sim, "fault", f"exec {victim} fenced out",
            proposer=proposer, votes=votes,
        )
        if self.partitioned is not None:
            # Partitioned recovery is a global restart, not a per-victim
            # takeover: hand the fence to the controller and stop here.
            if self.membership is not None:
                self.membership.announce_death(victim, proposer)
            self.partitioned.on_fence(victim)
            return
        # Completed-but-undurable recoveries whose state lived only in
        # this victim's memory must be redone from their own checkpoints.
        for undurable_victim in sorted(self._undurable):
            rec = self._undurable[undurable_victim]
            if rec["leader"] != victim:
                continue
            del self._undurable[undurable_victim]
            self._recovery_pending.add(undurable_victim)
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
        if self.membership is not None:
            self.membership.announce_death(victim, proposer)
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
        info = self._recovery[victim]
        while True:
            alive = self.alive()
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
                while not self.takeover_started(new_leader):
                    yield Timeout(self.watchdog_period_s)

    def _abort_if_dead(self, victim: int, new_leader: int) -> None:
        if new_leader in self.crashed:
            raise _RecoveryAborted(
                f"leader {new_leader} died recovering {victim}"
            )

    def _restorable_checkpoint(self, victim: int) -> Checkpoint:
        """The newest checkpoint of ``victim`` that is actually fetchable.

        Committed checkpoints physically live on the buddy node; if the
        buddy is dead they are unreachable and restore falls back to the
        empty deployment checkpoint — boundary -1, full input replay.
        """
        buddy = (victim + 1) % len(self.executors)
        if buddy != victim and buddy in self.crashed:
            return self.checkpoints.initial_for(victim)
        if self.coordinator is not None:
            # Async-snapshot: only captures from *complete* rounds are
            # consistent cuts; an incomplete round's capture may have
            # committed via replication but must never be restored.
            checkpoint = self.coordinator.restorable_for(victim)
            if checkpoint is None:
                return self.checkpoints.initial_for(victim)
            return checkpoint
        return self.checkpoints.latest_committed(victim)

    # -- the recovery protocol ----------------------------------------------
    def _recovery_body(self, victim: int, new_leader: int, led: list[int]):
        """One recovery attempt; raises :class:`_RecoveryAborted` if the
        promoted leader dies mid-flight (every merge below is
        ledger-deduplicated, so the retry on the next survivor is
        idempotent)."""
        info = self._recovery[victim]
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
            and buddy.executor_id not in self.crashed
            and checkpoint.nbytes
        ):
            yield self.cluster.link(buddy.node.index, nl_exec.node.index).send(
                checkpoint.nbytes
            )
            self._abort_if_dead(victim, new_leader)

        # --- atomic install: the checkpoint's handoff + retained merge ---
        # No simulated time may pass inside this block.  Reassignment and
        # the retained-backlog merge must share one instant: any delta a
        # helper collects strictly after it routes to the new leader over
        # the normal channel, so the per-helper epoch sequences stay dense.
        crdt = nl_exec.handle.crdt
        restored = {
            partition: (self.directory.leader_of_partition(partition), [
                (key, crdt.copy_payload(payload))
                for key, payload in checkpoint.partitions.get(partition, [])
            ])
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
                        self.note_partition_commit(partition, new_leader)
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
            yield self.cluster.link(src_node, nl_exec.node.index).send(
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
            if leader in self.crashed:
                continue  # that leader's own recovery merges these
            target = self.executors[leader]
            if leader != new_leader:
                total = sum(d.nbytes for d in deltas)
                if total:
                    yield self.cluster.link(
                        nl_exec.node.index, target.node.index
                    ).send(total)
                    self._abort_if_dead(victim, new_leader)
                    # A second crash may have landed during the transfer:
                    # that leader's own recovery merges these.
                    if (
                        leader in self.crashed
                        or self.directory.leader_of_partition(partition) != leader
                    ):
                        continue
            for delta in deltas:
                fresh = target.handle.merge_delta(delta)
                if fresh:
                    redelivered += 1
                    self.note_partition_commit(partition, leader)
                    if target.trigger is not None:
                        target.trigger.note_slices(delta.windows)
        info["victim_deltas_redelivered"] = redelivered

        # --- replay the victim's input from the checkpoint cut -------------
        yield from self._replay_input(victim, new_leader, checkpoint, info, led)
        self._abort_if_dead(victim, new_leader)

        # --- finish: the victim will never contribute again -----------------
        for executor in self.executors:
            if executor.executor_id in self.crashed:
                continue
            executor.backend.clock.advance(victim, float("inf"))
            executor._done_peers.add(victim)
        self._recovery_pending.discard(victim)
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
            if executor.executor_id in self.crashed:
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
        nl_exec = self.executors[new_leader]
        dead_exec = self.executors[victim]
        core = nl_exec.node.core(0)
        cost_model = nl_exec.node.cost_model
        crdt = nl_exec.handle.crdt
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
            staged: dict[int, dict[Any, Any]] = {}
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
                    for state_key, partial in result.partials.items():
                        partition = nl_exec.handle.partition_of(state_key)
                        if partition in led_set:
                            nl_exec.handle.store_for(partition).absorb(
                                state_key, partial
                            )
                            if isinstance(state_key, tuple):
                                window = int(state_key[0])
                                touched_led.add(window)
                                nl_exec.fold_hints([(window, now)])
                        else:
                            bucket = staged.setdefault(partition, {})
                            if state_key in bucket:
                                bucket[state_key] = crdt.merge(
                                    bucket[state_key], partial
                                )
                            else:
                                bucket[state_key] = partial
            if touched_led and nl_exec.trigger is not None:
                nl_exec.trigger.restore_pending(touched_led)
            # Ship this segment's remote partials under the victim's
            # original epoch identity for the segment.
            for partition in sorted(staged):
                pairs = tuple(staged[partition].items())
                nbytes = DELTA_HEADER_BYTES + sum(
                    16 + crdt.value_bytes(payload) for _k, payload in pairs
                )
                delta = EpochDelta(
                    operator_id=plan.operator_id,
                    partition=partition,
                    from_executor=victim,
                    epoch=epoch,
                    pairs=pairs,
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
                if leader in self.crashed:
                    # The partition is between leaders (a cascade is in
                    # flight); whichever recovery ends up restoring it
                    # merges the retained backlog.
                    continue
                target = self.executors[leader]
                if leader != new_leader:
                    yield self.cluster.link(
                        nl_exec.node.index, target.node.index
                    ).send(nbytes)
                    self._abort_if_dead(victim, new_leader)
                fresh = target.handle.merge_delta(delta)
                if fresh:
                    reshipped += 1
                    self.note_partition_commit(partition, leader)
                    if target.trigger is not None:
                        if leader == new_leader:
                            target.trigger.restore_pending(
                                int(key[0]) for key, _p in pairs
                                if isinstance(key, tuple)
                            )
                        else:
                            target.trigger.note_slices(
                                int(key[0]) for key, _p in pairs
                                if isinstance(key, tuple)
                            )
            positions = list(end_positions)
        info["replayed_batches"] = replayed_batches
        info["replayed_records"] = replayed_records
        info["reshipped_deltas"] = reshipped
        yield Timeout(0.0)

    # -- results & reporting -------------------------------------------------
    def committed_results(self, executor_id: int) -> Checkpoint:
        """The committed output of a crashed executor.

        This is the exact checkpoint its recovery restored from — not
        ``latest_committed``, because a replication that was in flight at
        crash time may commit *after* recovery already replayed past its
        cut, and counting that later checkpoint would double-count the
        replayed output.
        """
        if executor_id not in self.crashed:
            raise RecoveryError(f"executor {executor_id} did not crash")
        restored = self._restored_from.get(executor_id)
        if restored is not None:
            return restored
        return self.checkpoints.latest_committed(executor_id)

    def _crash_report(self) -> dict:
        """Per-victim recovery info plus the derived latency columns."""
        first_suspected = (
            self.membership.first_suspected if self.membership is not None else {}
        )
        crashes: dict[str, dict] = {}
        for victim, info in self._recovery.items():
            entry = dict(info)
            fault_at = entry.get("fault_at")
            suspected_at = first_suspected.get(victim)
            if suspected_at is not None:
                entry["first_suspected_at"] = suspected_at
            if fault_at is not None:
                if suspected_at is not None:
                    entry["detection_s"] = suspected_at - fault_at
                if "promoted_at" in entry:
                    entry["promotion_s"] = entry["promoted_at"] - fault_at
                if "recovered_at" in entry:
                    entry["mttr_s"] = entry["recovered_at"] - fault_at
            crashes[str(victim)] = entry
        return crashes

    def report(self) -> dict:
        """JSON-able summary of what the plan did and what recovery cost."""
        taken, committed = self.checkpoints.counts()
        return {
            "seed": self.plan.seed,
            "strategy": self.strategy,
            "events": [
                {
                    "kind": event.kind.value,
                    "at_s": event.at_s,
                    "target": event.target,
                    "duration_s": event.duration_s,
                }
                for event in self.plan
            ],
            "crashes": self._crash_report(),
            "partitions": [dict(p) for p in self._partitions],
            "membership": (
                self.membership.report() if self.membership is not None else {}
            ),
            "terms": self.terms.summary(),
            "checkpoints_taken": taken,
            "checkpoints_committed": committed,
            **self.stats,
        }
