"""Live SSB partition migration for the Slash engine (``sim.elastic``).

The coordinator executes a :class:`~repro.elastic.plan.ElasticPlan`
against a running set of :class:`~repro.core.executor.SlashExecutor`
processes.  Two strategies, one loop: a migration is a list of *steps*;
each step pre-copies its moves' sub-ranges, pauses, hands the moves off
and stalls for the residual transfer.  The strategy only picks the
steps, the pre-copied ranges and who pauses:

**all-at-once**
    One step holding every move, nothing pre-copied, and every live
    scheduler in the cluster paused for the bulk transfer of the moving
    partitions' primary state — the classic stop-the-world latency spike.

**fluid** (Megaphone-style)
    One step per move.  Its state is pre-copied in ``fluid_ranges``
    per-key-range rounds interleaved with processing; each round stalls
    only the *source* executor for that range's transfer time, and the
    rounds are spread out so the source drains its backlog in between.
    At handoff only the residual (bytes dirtied since their range was
    copied) transfers inside a short final stall of source and
    destination.

The ownership flip itself is a :class:`~repro.state.partition.Handoff`
installed by the new leader (``SlashExecutor.install``, the same site a
failover uses) — atomic, inside one coordinator step with no intervening
simulation event, under the directory's term bump.  It is followed by a
*forwarding window*: epoch deltas that were already in flight to the old
leader are relayed to the new one with their original ``(helper,
epoch)`` identity, the new leader's epoch ledger is seeded from the old
leader's admission point so the per-helper epoch sequence stays dense,
and direct deltas that overtake a relay are parked in a reorder buffer.
The new leader's triggers are gated until every epoch that was in flight
at the handoff instant has been admitted, so no window can fire with a
key's state split across two executors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

import numpy as np

from repro.common.errors import ConfigError, StateError
from repro.elastic.plan import (
    ElasticPlan,
    PartitionMove,
    subranges_of,
    transfer_seconds,
)
from repro.elastic.planner import MigrationPlanner
from repro.simnet.kernel import AllOf, FirstOf, Signal, Timeout
from repro.simnet.trace import trace
from repro.state.partition import Handoff

#: Simulated seconds between relay-drain polls after a handoff.
DRAIN_POLL_S = 1e-4

#: Polls without any admission progress before the coordinator declares
#: the relay drain stalled (a protocol bug, not a slow run).
DRAIN_STALL_POLLS = 100_000


@dataclass
class _PostState:
    """Per-partition bookkeeping for the post-handoff forwarding window."""

    move: PartitionMove
    #: helper id -> epochs shipped-but-unadmitted at the handoff instant.
    pending: dict[int, set[int]]
    #: helper id -> [(delta, ingest_times)] parked by the reorder buffer.
    buffers: dict[int, list] = field(default_factory=dict)
    relays_in_flight: int = 0
    drained: bool = False


class SlashElasticCoordinator:
    """Executes live partition migration against running Slash executors."""

    def __init__(
        self,
        sim: Any,
        cluster: Any,
        directory: Any,
        plan: ElasticPlan,
        buffer_bytes: int,
    ):
        self.sim = sim
        self.cluster = cluster
        self.directory = directory
        self.plan = plan
        self.buffer_bytes = buffer_bytes
        self.executors: list = []
        self.operator_id: Optional[str] = None
        self.missed_rescale = False
        #: One dict per executed (or rolled-back) partition move.
        self.events: list[dict] = []
        self._post: dict[int, _PostState] = {}
        self._suppressed: set[int] = set()
        self._held: set[int] = set()
        self._migration_started_at: Optional[float] = None
        self._migration_ended_at: Optional[float] = None
        self._admissions = 0
        self._done = Signal(name="elastic.done")

    # -- wiring ----------------------------------------------------------
    def register(self, executors: list) -> None:
        """Bind the coordinator to the run's executor set."""
        self.executors = list(executors)
        self.operator_id = executors[0].plan.operator_id
        san = self.sim.sanitize
        if san is not None:
            for partition in range(self.directory.executors):
                san.note_migration_owner(
                    self.operator_id,
                    partition,
                    self.directory.leader_of_partition(partition),
                )

    def arm(self) -> None:
        """Start the coordinator's simulation process."""
        self.sim.process(self._body(), name="elastic.coordinator")

    # -- hooks consulted by the executors --------------------------------
    def triggers_suppressed(self, executor_id: int) -> bool:
        """Window firing gated at ``executor_id`` (handoff in flight)."""
        return executor_id in self._suppressed

    def holds_finalize(self, executor_id: int) -> bool:
        """``executor_id`` must not finalize yet (relays may re-pend it)."""
        return executor_id in self._held

    def on_delta(self, executor: Any, delta: Any, ingest_times: tuple) -> bool:
        """Merge-site intercept; True when the coordinator consumed it.

        Two cases: the executor is the *old* leader of a migrated
        partition (the delta was in flight at the handoff — relay it to
        the new leader, identity preserved), or it is the *new* leader
        and the delta would skip a still-in-flight epoch (park it in the
        reorder buffer until the gap closes).
        """
        partition = delta.partition
        post = self._post.get(partition)
        if post is None:
            return False
        executor_id = executor.executor_id
        if not self.directory.is_leader(executor_id, partition):
            if executor_id != post.move.src:
                return False
            post.relays_in_flight += 1
            self.sim.process(
                self._forward_body(
                    post, delta, ingest_times, self._transfer_seconds(delta.nbytes)
                ),
                name=f"elastic.relay.p{partition}e{delta.epoch}",
            )
            return True
        san = self.sim.sanitize
        if san is not None:
            san.check_delta_owner(delta.operator_id, partition, executor_id)
        helper_id = delta.from_executor
        admitted = executor.backend.ledger.last_epoch(
            delta.operator_id, partition, helper_id
        )
        pending = self._fold_admitted(post, helper_id, admitted)
        if delta.epoch <= admitted + 1:
            # Dense (or a duplicate the ledger will dedupe): merge it on
            # the executor's own path.  If parked successors were waiting
            # on exactly this gap, drain them right after the merge.
            if post.buffers.get(helper_id):
                self.sim.process(
                    self._drain_soon(executor, post),
                    name=f"elastic.drain.p{partition}",
                )
            return False
        if pending or post.buffers.get(helper_id) or post.relays_in_flight:
            # Out of order while earlier epochs are still in flight
            # (relaying, or backlogged on another shipper thread): park
            # until the gap closes.
            post.buffers.setdefault(helper_id, []).append((delta, ingest_times))
            return True
        # A skip with nothing in flight is a real protocol bug — fall
        # through and let the ledger raise.
        return False

    def on_ship_blocked(self, helper: Any, delta: Any) -> bool:
        """Shipper-side intercept for deltas whose send path vanished.

        A helper's shipper threads partition their out-channels by
        ``leader % threads`` — an invariant the migration breaks: deltas
        enqueued before the handoff re-point to the new leader at send
        time, landing on a channel a *different* thread owns.  That
        thread may already have closed it behind its own final cut, and
        the new leader itself finds ``leader == self``.  Both cases drop
        the delta on the crash-promotion path (recovery re-merges the
        retained copy), but under live migration these epochs are in
        ``pending`` and their state exists nowhere else — so the
        coordinator carries them to the new leader itself.
        """
        post = self._post.get(delta.partition)
        if post is None:
            return False
        delay = (
            0.0
            if helper.executor_id == post.move.dst
            else self._transfer_seconds(delta.nbytes)
        )
        post.relays_in_flight += 1
        self.sim.process(
            self._forward_body(post, delta, helper.hints_of(delta.windows), delay),
            name=f"elastic.forward.p{delta.partition}e{delta.epoch}",
        )
        return True

    # -- the coordinator body --------------------------------------------
    def _body(self) -> Generator[Any, Any, None]:
        finished = AllOf([e.finished for e in self.executors])
        index, _value = yield FirstOf([Timeout(self.plan.rescale_at), finished])
        if index == 1:
            # Every executor finished before the rescale instant: the
            # schedule points past the workload horizon.
            self.missed_rescale = True
            self._done.fire(None)
            return
        self._migration_started_at = self.sim.now
        moves = self._plan_moves()
        trace(
            self.sim, "elastic",
            f"rescale ({self.plan.strategy}) starts: {len(moves)} move(s)",
            at=self.sim.now,
        )
        yield from self._migrate(moves)
        yield from self._await_relay_drain()
        self._migration_ended_at = self.sim.now
        self._release_all()
        self._done.fire(None)

    def _plan_moves(self) -> list[PartitionMove]:
        def size_of(partition: int) -> int:
            leader = self.directory.leader_of_partition(partition)
            return self.executors[leader].handle.store_for(partition).size_bytes

        planner = MigrationPlanner(self.directory, size_of_partition=size_of)
        joining = [
            e.executor_id for e in self.executors if not e.flows
        ]
        return planner.plan_moves(self.plan, joining=joining)

    # -- the migration loop ----------------------------------------------
    def _migrate(self, moves: list[PartitionMove]) -> Generator[Any, Any, None]:
        """Pre-copy, pause, hand off and stall, one step at a time.

        The strategy picks three values: the steps (all-at-once moves
        everything in one step, fluid one move per step), the pre-copied
        sub-ranges (0 or ``fluid_ranges``) and who pauses for the step's
        final transfer (every live executor, or each move's src + dst).
        """
        fluid = self.plan.strategy == "fluid"
        steps = [[move] for move in moves] if fluid else [moves]
        ranges = self.plan.fluid_ranges if fluid else 0
        for step in steps:
            live: list[PartitionMove] = []
            residual = 0
            for move in step:
                copied = yield from self._pre_copy(move, ranges)
                if self._mover_crashed(move):
                    if ranges:
                        # Fenced rollback: nothing re-pointed yet, so
                        # ownership is unchanged; the pre-copies are dropped.
                        self._roll_back(move)
                        trace(
                            self.sim, "elastic",
                            f"move of p{move.partition} rolled back (mover crashed)",
                        )
                    continue
                live.append(move)
                store = self.executors[move.src].handle.store_for(move.partition)
                residual += max(store.size_bytes - copied, 0)
            if fluid:
                paused = {e for move in live for e in (move.src, move.dst)}
            else:
                paused = set(range(len(self.executors))) - self._crashed()
            if not paused:
                continue
            stall = self._transfer_seconds(residual)
            for executor_id in sorted(paused):
                for scheduler in self.executors[executor_id].schedulers:
                    scheduler.pause_until(self.sim.now + stall)
            for move in live:
                self._hand_off(move, ranges, stall)
            yield Timeout(stall)

    def _pre_copy(self, move: PartitionMove, ranges: int) -> Generator[Any, Any, int]:
        """Copy ``ranges`` sub-ranges of the moving partition, each under a
        source-only stall; returns the bytes copied (stops at a crash)."""
        src_ex = self.executors[move.src]
        copied_bytes = 0
        for range_id in range(ranges):
            if self._mover_crashed(move):
                break
            range_bytes = self._range_bytes(src_ex, move.partition, range_id)
            stall = self._transfer_seconds(range_bytes)
            san = self.sim.sanitize
            if san is not None:
                san.note_range_copy(
                    self.operator_id, move.partition, range_id,
                    move.src, move.dst,
                )
            for scheduler in src_ex.schedulers:
                scheduler.pause_until(self.sim.now + stall)
            copied_bytes += range_bytes
            yield Timeout(stall)
            gap = stall * self.plan.fluid_spread
            if gap > 0:
                yield Timeout(gap)
        return copied_bytes

    # -- the handoff -------------------------------------------------------
    def _hand_off(self, move: PartitionMove, ranges: int, stall_s: float) -> None:
        """Move one partition's primary state to ``move.dst`` and open its
        forwarding window — all inside one coordinator step."""
        partition = move.partition
        src_ex = self.executors[move.src]
        dst_ex = self.executors[move.dst]
        operator_id = self.operator_id
        src_store = src_ex.handle.store_for(partition)
        pairs = list(src_store.scan())
        for key, _payload in pairs:
            src_store.remove(key)
        moved_bytes = sum(
            16 + src_ex.handle.crdt.value_bytes(payload) for _key, payload in pairs
        )

        # The new leader's ledger resumes from the old leader's admission
        # point per helper; epochs shipped past it are still in flight.
        ledger: dict = {}
        pending: dict[int, set[int]] = {}
        for helper in self.executors:
            helper_id = helper.executor_id
            shipped = helper.handle._epochs_shipped[partition]
            admitted = src_ex.backend.ledger.last_epoch(
                operator_id, partition, helper_id
            )
            if admitted >= 0:
                ledger[(operator_id, partition, helper_id)] = admitted
            outstanding = set(range(admitted + 1, shipped))
            if outstanding:
                pending[helper_id] = outstanding
        # CRDT merge at the new leader absorbs its own unshipped fragment
        # partials of the moved keys too.
        dst_ex.install(Handoff(
            {partition: (move.src, pairs)}, ledger=ledger,
            hints=src_ex.hints_of(dst_ex._windows_of(pairs)), ranges=ranges,
        ))
        src_ex._ws_bytes = max(0.0, src_ex._ws_bytes - moved_bytes)
        dst_ex._ws_bytes += moved_bytes
        term = self.directory.term_of(partition)

        self._post[partition] = _PostState(move=move, pending=pending)
        self._suppressed.add(move.dst)
        self._held.add(move.dst)
        self.events.append(
            {
                "partition": partition,
                "src": move.src,
                "dst": move.dst,
                "strategy": self.plan.strategy,
                "rolled_back": False,
                "at_s": self.sim.now,
                "term": term,
                "moved_bytes": moved_bytes,
                "moved_keys": len(pairs),
                "ranges_copied": ranges,
                "handoff_stall_s": stall_s,
                "expected_relays": sum(len(v) for v in pending.values()),
            }
        )
        trace(
            self.sim, "elastic",
            f"p{partition} handed off {move.src}->{move.dst}",
            term=term, moved_keys=len(pairs),
        )

    # -- the forwarding window -------------------------------------------
    def _forward_body(
        self, post: _PostState, delta: Any, ingest_times: tuple, delay: float
    ) -> Generator[Any, Any, None]:
        """Carry one coordinator-owned delta to the new leader.

        The transfer delay varies with the delta's size, so forwards can
        overtake each other on the wire — admission goes through the
        same dense-order gate as direct arrivals: apply if the epoch is
        next (then drain any parked successors), park otherwise.
        """
        if delay > 0:
            yield Timeout(delay)
        post.relays_in_flight -= 1
        dst_ex = self.executors[post.move.dst]
        if dst_ex.executor_id in self._crashed():
            return
        admitted = dst_ex.backend.ledger.last_epoch(
            delta.operator_id, delta.partition, delta.from_executor
        )
        if delta.epoch > admitted + 1:
            post.buffers.setdefault(delta.from_executor, []).append(
                (delta, ingest_times)
            )
            return
        yield from self._apply_at(dst_ex, post, delta, ingest_times)
        yield from self._drain_buffers(dst_ex, post)

    def _drain_soon(self, dst_ex: Any, post: _PostState) -> Generator[Any, Any, None]:
        """Drain the reorder buffer right after the in-progress merge.

        Spawned from the merge-site intercept when a dense delta is
        about to close the gap parked successors are waiting on; the
        zero-delay timeout sequences the drain after that merge lands.
        """
        yield Timeout(0.0)
        if dst_ex.executor_id in self._crashed():
            return
        yield from self._drain_buffers(dst_ex, post)

    def _apply_at(
        self, dst_ex: Any, post: _PostState, delta: Any, ingest_times: tuple
    ) -> Generator[Any, Any, None]:
        """Admit one forwarded delta at the new leader, identity intact."""
        from repro.core.costs import quantize_working_set

        core = dst_ex.node.core(0)
        if len(delta.keys):
            merge_cost = dst_ex.node.cost_model.op(
                dst_ex.costs.merge_pair,
                quantize_working_set(dst_ex._ws_bytes + 4096),
                dst_ex.costs.merge_lines,
            )
            yield from core.execute(merge_cost, float(len(delta.keys)))
        san = self.sim.sanitize
        if san is not None:
            san.check_delta_owner(
                delta.operator_id, delta.partition, dst_ex.executor_id
            )
            san.note_transfer_apply(
                delta.operator_id,
                (delta.partition, delta.from_executor, delta.epoch),
            )
        fresh = dst_ex.handle.merge_delta(delta)
        if fresh:
            self._admissions += 1
            if self.sim.faults is not None:
                self.sim.faults.note_partition_commit(
                    delta.partition, dst_ex.executor_id
                )
            dst_ex.fold_hints(ingest_times)
            if dst_ex.trigger is not None:
                dst_ex.trigger.note_slices(delta.windows)
            yield from dst_ex._check_triggers(core)
        pending = post.pending.get(delta.from_executor)
        if pending is not None:
            pending.discard(delta.epoch)
            if not pending:
                post.pending.pop(delta.from_executor, None)

    def _drain_buffers(self, dst_ex: Any, post: _PostState) -> Generator[Any, Any, None]:
        """Apply parked direct deltas whose epoch gap has closed."""
        ledger = dst_ex.backend.ledger
        progress = True
        while progress:
            progress = False
            for helper_id, parked in list(post.buffers.items()):
                parked.sort(key=lambda item: item[0].epoch)
                while parked:
                    delta, ingest_times = parked[0]
                    admitted = ledger.last_epoch(
                        delta.operator_id, delta.partition, helper_id
                    )
                    if delta.epoch > admitted + 1:
                        break
                    parked.pop(0)
                    yield from self._apply_at(dst_ex, post, delta, ingest_times)
                    progress = True
                if not parked:
                    post.buffers.pop(helper_id, None)

    def _await_relay_drain(self) -> Generator[Any, Any, None]:
        """Hold the new leaders' triggers until every in-flight epoch landed."""
        stalled_polls = 0
        last_admissions = self._admissions
        while True:
            crashed = self._crashed()
            all_drained = True
            for partition, post in self._post.items():
                for helper_id in list(post.pending):
                    if helper_id in crashed:
                        post.pending.pop(helper_id, None)
                        post.buffers.pop(helper_id, None)
                if post.pending or post.buffers or post.relays_in_flight:
                    all_drained = False
            if all_drained:
                return
            yield Timeout(DRAIN_POLL_S)
            # Direct deltas admit through the executor's own merge path;
            # fold that progress into the pending sets each poll.
            for partition, post in self._post.items():
                dst_ex = self.executors[post.move.dst]
                ledger = dst_ex.backend.ledger
                for helper_id in list(post.pending):
                    self._fold_admitted(post, helper_id, ledger.last_epoch(
                        self.operator_id, partition, helper_id
                    ))
                if post.buffers:
                    yield from self._drain_buffers(dst_ex, post)
            if self._admissions == last_admissions:
                stalled_polls += 1
                if stalled_polls > DRAIN_STALL_POLLS:
                    raise StateError(
                        "migration relay drain stalled: epochs "
                        f"{ {p: post.pending for p, post in self._post.items() if post.pending} } "
                        "were in flight at handoff but never admitted"
                    )
            else:
                stalled_polls = 0
                last_admissions = self._admissions

    def _release_all(self) -> None:
        """Lift trigger suppression / finalize holds and re-check windows."""
        released = sorted(self._suppressed | self._held)
        self._suppressed.clear()
        self._held.clear()
        crashed = self._crashed()
        for executor_id in released:
            if executor_id in crashed:
                continue
            executor = self.executors[executor_id]
            self.sim.process(
                self._final_checks(executor),
                name=f"elastic.release.e{executor_id}",
            )

    def _final_checks(self, executor: Any) -> Generator[Any, Any, None]:
        yield from executor._check_triggers(executor.node.core(0))
        executor._maybe_finalize_soon()

    # -- helpers ----------------------------------------------------------
    @staticmethod
    def _fold_admitted(post: _PostState, helper_id: int, admitted: int) -> Optional[set]:
        """Drop the epochs the new leader's ledger admitted from
        ``helper_id``'s pending set — direct deltas admit through the
        executor's own merge path without touching the coordinator's books.
        Returns what is still pending (``None`` once nothing is)."""
        pending = post.pending.get(helper_id)
        if pending:
            pending.difference_update(range(min(pending), admitted + 1))
        if not pending:
            post.pending.pop(helper_id, None)
            return None
        return pending

    def _mover_crashed(self, move: PartitionMove) -> bool:
        crashed = self._crashed()
        if move.src not in crashed and move.dst not in crashed:
            return False
        if not any(
            e["partition"] == move.partition and e["rolled_back"] for e in self.events
        ):
            self._roll_back(move)
        return True

    def _roll_back(self, move: PartitionMove) -> None:
        self.events.append({
            "partition": move.partition, "src": move.src, "dst": move.dst,
            "strategy": self.plan.strategy, "rolled_back": True, "at_s": self.sim.now,
        })

    def _crashed(self) -> set:
        faults = self.sim.faults
        return faults.crashed if faults is not None else set()

    def _transfer_seconds(self, nbytes: int) -> float:
        return transfer_seconds(self.cluster.config, nbytes, self.buffer_bytes)

    def _range_bytes(self, executor: Any, partition: int, range_id: int) -> int:
        """The bytes of ``partition``'s keys in fluid sub-range ``range_id``,
        as the source store holds them now: one masked sum over its scan."""
        keys, payloads = executor.handle.store_for(partition).scan_columns()
        group_keys = [key[1] if isinstance(key, tuple) else key for key in keys]
        in_range = subranges_of(group_keys, self.plan.fluid_ranges) == range_id
        crdt = executor.handle.crdt
        if crdt.fixed_size:
            return int(np.count_nonzero(in_range)) * (16 + crdt.payload_bytes)
        lengths = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))
        return int((16 + crdt.length_bytes(lengths))[in_range].sum())

    # -- post-run accounting ----------------------------------------------
    def check_complete(self) -> None:
        """Raise if the run ended in an impossible elastic state."""
        if self.missed_rescale:
            raise ConfigError(
                f"rescale_at {self.plan.rescale_at!r} lands after the "
                "workload horizon: every executor finished before the "
                "rescale instant (pick an earlier rescale_at)"
            )
        leftover = {
            partition: {
                "pending": {h: sorted(v) for h, v in post.pending.items()},
                "buffered": sum(len(v) for v in post.buffers.values()),
            }
            for partition, post in self._post.items()
            if post.pending or post.buffers
        }
        if leftover:
            raise StateError(
                f"migration ended with undrained forwarding state: {leftover}"
            )

    def report(self) -> dict:
        """JSON-able summary for ``RunResult.extra['elastic']``."""
        completed = [e for e in self.events if not e.get("rolled_back")]
        return {
            "strategy": self.plan.strategy,
            "action": self.plan.action,
            "events": list(self.events),
            "moves_completed": len(completed),
            "moves_rolled_back": len(self.events) - len(completed),
            "moved_bytes": sum(e.get("moved_bytes", 0) for e in completed),
            "started_at_s": self._migration_started_at,
            "ended_at_s": self._migration_ended_at,
            "relay_admissions": self._admissions,
            "terms": dict(self.directory.terms),
        }
