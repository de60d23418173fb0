"""The fault injector: applies a :class:`FaultPlan`, fences, reports.

The injector is attached to the simulation kernel (``sim.faults``), which
flips every layer of the stack into its fault-tolerant code path:

* the RDMA layer consults :meth:`should_drop_write` per WRITE and the
  producer endpoints switch to ACK-tracked transfers with bounded
  exponential-backoff retransmission;
* the channel layer arms credit timeouts and the poison/reset handshake;
* executors run a watchdog coroutine that reacts to peer-death suspicion.

The injector knows no engine.  Every engine registers one
:class:`FaultTarget` per node (what a fault event acts on) and one
*recovery* object (what a committed fence does) through
:meth:`FaultInjector.register`: Slash's epoch-buddy recovery or its
Chandy-Lamport subclass, the partitioned engines' aligned-snapshot
controller with its global restart, or ``None`` for a deployment that
absorbs only :data:`DATA_PLANE_KINDS`.  The
injector calls its ``arm``, ``on_crash``, ``on_fence`` (which announces
the death) and ``member_finished`` hooks, and reports its ``strategy``.

Detection and promotion are **not** oracle-driven: a
:class:`~repro.membership.MembershipService` runs one agent per member
over the simulated network.  Heartbeat datagrams feed per-node
phi-accrual detectors (views can disagree across a partition); a
suspicion becomes a fence only after a *quorum* of the membership acks
it and a confirmation grace elapses (so a healed partition aborts the
fence).  The fence bumps the term of every partition that changes
hands; the commit registry proves no two executors ever commit deltas
for the same partition under the same term.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional

from repro.common.errors import FaultError
from repro.core.windows import SessionWindows, SlidingWindow
from repro.faults.checkpoint import Checkpoint, CheckpointStore
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.membership import MembershipService, TermRegistry, quorum_size
from repro.simnet.kernel import Simulator, Timeout
from repro.simnet.trace import trace

# Default fault-handling tunables; the chaos harness scales these to the
# workload's horizon.  All in simulated seconds.
DEFAULT_DETECT_S = 1e-3
DEFAULT_WATCHDOG_PERIOD_S = 5e-4
DEFAULT_RTO_S = 2e-5
DEFAULT_CREDIT_TIMEOUT_S = 5e-4

#: Reliable-send attempts before a peer counts as unreachable.
MAX_RETRIES = 8

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
#: promotion, so a deployment registered without a recovery object can
#: absorb them.
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
    """One node of a deployment, as the fault events see it."""

    node: Any
    #: Returns the node's inbound consumer endpoints.  Called at event
    #: time: a partitioned engine's global restart rebuilds its channels.
    in_channels: Callable[[], list]
    #: Extra bandwidth pipes a NIC flap must also degrade (e.g. the
    #: IPoIB fabric's per-node tx/rx pipes, which sit beside the node's
    #: RDMA NIC pipes).
    extra_pipes: list = dataclasses.field(default_factory=list)
    #: Task schedulers a stall pauses and a crash halts (Slash only).
    schedulers: list = dataclasses.field(default_factory=list)


class FaultInjector:
    """Applies a fault plan to one simulation; fences and reports."""

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        *,
        detect_s: float = DEFAULT_DETECT_S,
        watchdog_period_s: float = DEFAULT_WATCHDOG_PERIOD_S,
        rto_s: float = DEFAULT_RTO_S,
        credit_timeout_s: float = DEFAULT_CREDIT_TIMEOUT_S,
        snapshot_interval_s: float | None = None,
    ):
        if detect_s <= 0 or watchdog_period_s <= 0 or rto_s <= 0 or credit_timeout_s <= 0:
            raise FaultError("fault-handling timeouts must be positive")
        if snapshot_interval_s is not None and snapshot_interval_s <= 0:
            raise FaultError("snapshot_interval_s must be positive")
        self.sim = sim
        self.plan = plan
        self.detect_s = detect_s
        self.watchdog_period_s = watchdog_period_s
        self.rto_s = rto_s
        self.credit_timeout_s = credit_timeout_s
        self.max_retries = MAX_RETRIES
        #: Period of the marker rounds under async-snapshot; defaults to
        #: twice the detection budget so a round usually completes
        #: between fault and fence.
        self.snapshot_interval_s = (
            snapshot_interval_s if snapshot_interval_s is not None
            else 2.0 * detect_s
        )

        self.targets: list[FaultTarget] = []
        self.recovery: Any = None
        self.cluster: Any = None
        self._node_to_exec: dict[int, int] = {}

        #: Every recovery protocol's checkpoints (the report counts them).
        self.checkpoints = CheckpointStore()
        self.crashed: set[int] = set()
        #: Victims whose recovery has not completed (finalisation waits).
        self.recovery_pending: set[int] = set()
        #: victim -> timing and recovery details, for the report.
        self.recovery_info: dict[int, dict] = {}

        # Membership, fencing, and multi-fault bookkeeping.
        self.membership: MembershipService | None = None
        self.terms = TermRegistry()
        #: Victims whose fence committed (takeover executing or done).
        self._takeover_started: set[int] = set()
        #: First fault instant per victim (crash time or partition onset);
        #: the zero point of the detection/promotion/MTTR columns.
        self._fault_at: dict[int, float] = {}
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
    def register(
        self, cluster: Any, targets: list[FaultTarget], recovery: Any
    ) -> None:
        """Bind the injector to a freshly built deployment.

        ``targets`` is one :class:`FaultTarget` per node, in member-id
        order; ``recovery`` is the object a committed fence is handed to
        (see the module docstring).  Without one there are no checkpoints,
        membership agents, or promotion, so only :data:`DATA_PLANE_KINDS`
        are allowed — crash/partition/stall events are rejected up front
        rather than silently doing nothing.
        """
        if recovery is None:
            unsupported = {e.kind for e in self.plan} - DATA_PLANE_KINDS
            if unsupported:
                raise FaultError(
                    "data-plane fault injection supports "
                    f"{sorted(k.value for k in DATA_PLANE_KINDS)}; plan contains "
                    f"{sorted(k.value for k in unsupported)}"
                )
        self.plan.validate(len(targets))
        self.cluster = cluster
        self.targets = list(targets)
        self.recovery = recovery
        for index, target in enumerate(self.targets):
            self._node_to_exec[target.node.index] = index
        if recovery is None:
            return
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
        query_plan = recovery.query_plan
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
        self.terms = TermRegistry(recovery.directory)
        self.membership = MembershipService(
            self,
            heartbeat_period_s=self.detect_s / HEARTBEAT_DIVISOR,
            phi_threshold=PHI_THRESHOLD,
            confirm_s=self.detect_s * CONFIRM_FRACTION,
            ack_timeout_s=self.detect_s * ACK_TIMEOUT_FRACTION,
        )

    def arm(self) -> None:
        """Launch the membership agents and one process per fault event."""
        if self.recovery is not None:
            self.membership.start()
            self.recovery.arm()
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
        """Surviving member ids, ascending."""
        return [
            member for member in range(len(self.targets))
            if member not in self.crashed
        ]

    def deployment_finished(self) -> bool:
        """Whether every non-crashed member has finalized (agents exit)."""
        return all(
            member in self.crashed or self.recovery.member_finished(member)
            for member in range(len(self.targets))
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
        info = self.recovery_info.setdefault(victim, {})
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
            member for member in range(len(self.targets))
            if member not in fenced
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

    def holds_finalize(self, executor_id: int) -> bool:
        """Whether finalisation is held open (a recovery is in flight).

        Every survivor waits: the promoted leader because its windows are
        incomplete, the others because recovery may still re-deliver the
        victim's retained deltas to them.
        """
        return bool(self.recovery_pending)

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
            target = self.targets[event.target]
            pipes = [target.node.nic_tx, target.node.nic_rx, *target.extra_pipes]
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
            until = self.sim.now + event.duration_s
            for scheduler in self.targets[event.target].schedulers:
                scheduler.pause_until(until)
        elif event.kind is FaultKind.CREDIT_STARVATION:
            target = self.targets[event.target]
            # Local (same-node memcpy) channels have no credit messages
            # to withhold.
            endpoints = [
                c for c in target.in_channels() if hasattr(c, "flush_withheld")
            ]
            for consumer in endpoints:
                consumer.withhold_credits = True
            yield Timeout(event.duration_s)
            core = target.node.core(0)
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
            node = self.targets[event.target].node
            node.cost_model.slow_down(event.factor)
            yield Timeout(event.duration_s)
            node.cost_model.restore_speed()
        elif event.kind is FaultKind.JITTER:
            # Inflate the data-plane latency of the target's links (both
            # directions) to factor x nominal; datagrams stay untouched
            # so the failure detector never sees the fault.
            target_node = self.targets[event.target].node
            nic = target_node.config.nic
            extra = (event.factor - 1.0) * (
                nic.propagation_latency_s + self.cluster.config.switch_latency_s
            )
            if event.peer is not None:
                peers = [self.targets[event.peer].node.index]
            else:
                peers = [
                    t.node.index for t in self.targets
                    if t.node.index != target_node.index
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

    def _partition_proc(self, event: FaultEvent, *, symmetric: bool):
        """Cut the target's links for the event's duration, then heal.

        Symmetric: both directions between the target and every other
        node.  Asymmetric: only the target's *outbound* direction — the
        target keeps hearing everyone (so it suspects nobody), while the
        rest of the cluster loses its heartbeats and may fence it.
        """
        target = event.target
        target_node = self.targets[target].node.index
        others = sorted(
            t.node.index for t in self.targets if t.node.index != target_node
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
        if self.recovery.member_finished(victim):
            trace(self.sim, "fault", f"crash of exec {victim} no-op (finished)")
            return
        now = self.sim.now
        self.crashed.add(victim)
        self._fault_at.setdefault(victim, now)
        self.recovery_pending.add(victim)
        for scheduler in self.targets[victim].schedulers:
            scheduler.halt()
        self.recovery.on_crash(victim)
        info = self.recovery_info.setdefault(victim, {})
        info["crashed_at"] = now
        info["fault_at"] = self._fault_at[victim]

    # -- fencing --------------------------------------------------------------
    def execute_takeover(self, victim: int, *, proposer: int, votes: int) -> None:
        """A quorum-backed fence of ``victim`` committed: hand it to recovery.

        Called by the membership service after quorum + confirmation
        grace.  The victim may still be alive (asymmetric partition): it
        is administratively halted here — with the term bump, that is
        what makes fencing a healthy node safe.  Idempotent: concurrent
        proposals for the same victim execute exactly one takeover.
        """
        if victim in self._takeover_started:
            return
        self._takeover_started.add(victim)
        if self.recovery.member_finished(victim):
            trace(self.sim, "fault", f"fence of exec {victim} no-op (finished)")
            return
        now = self.sim.now
        if victim not in self.crashed:
            self._apply_crash(victim)
        info = self.recovery_info.setdefault(victim, {})
        info["detected_at"] = now
        info["promoted_at"] = now
        info["fenced_by"] = proposer
        info["votes"] = votes
        info.setdefault("fault_at", self._fault_at.get(victim, now))
        trace(
            self.sim, "fault", f"exec {victim} fenced out",
            proposer=proposer, votes=votes,
        )
        self.recovery.on_fence(victim, proposer)

    def replicate(
        self,
        checkpoint: Checkpoint,
        on_commit: Optional[Callable[[Checkpoint], None]] = None,
    ):
        """Asynchronously copy a checkpoint to its buddy node.

        The buddy of member ``i`` is member ``i + 1`` (mod n).  The
        source may die (or be fenced) mid-replication, or the buddy
        holding the copy may be gone; an uncommitted checkpoint must stay
        unusable, so it commits only on full transfer to a live buddy
        from a live source, and only then runs ``on_commit``.
        """
        source = checkpoint.executor_id
        buddy = (source + 1) % len(self.targets)
        if buddy != source and checkpoint.nbytes:
            yield from self.cluster.link(
                self.targets[source].node.index, self.targets[buddy].node.index
            ).send(checkpoint.nbytes)
        if source in self.crashed or buddy in self.crashed:
            return
        checkpoint.committed_at = self.sim.now
        self.stats["checkpoint_bytes_replicated"] += checkpoint.nbytes
        if on_commit is not None:
            on_commit(checkpoint)
        yield Timeout(0.0)

    def _crash_report(self) -> dict:
        """Per-victim recovery info plus the derived latency columns."""
        first_suspected = (
            self.membership.first_suspected if self.membership is not None else {}
        )
        crashes: dict[str, dict] = {}
        for victim, info in self.recovery_info.items():
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
            "strategy": (
                self.recovery.strategy if self.recovery is not None else None
            ),
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
