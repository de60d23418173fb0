"""Live rescaling for the partitioned (UpPar) exchange architecture.

The exchange engine has no partition directory to re-point: every
partitioner hashes each record straight to the consumer that owns its
key.  Elasticity therefore needs a level of indirection — a shared
**route table** of ``base_consumers x fluid_ranges`` buckets
(``bucket = hash(key) % buckets``, ``consumer = route[bucket]``),
initialised so routing is bit-identical to the static hash:
``route[b] = b % base_consumers`` and ``base_consumers`` divides the
bucket count, so ``(h % buckets) % base_consumers == h % base_consumers``.
The table only exists when an :class:`ElasticPlan` is attached; static
runs keep the original modulo routing untouched.

A rescale round is one of the engine's barrier rounds — the same aligned
round its crash recovery captures with — adapted, like Megaphone's
sub-moves, to a record-at-a-time exchange:

1. once no other round is outstanding, the coordinator flips the moved
   buckets' route entries atomically and opens the round — records
   partitioned afterwards flow to the new owner;
2. every live partitioner flushes its fan-out buffers and markers every
   channel, so per-channel FIFO puts the marker after every old-routed
   record;
3. the involved consumers' triggers are gated from the flip on: once a
   bucket's state is split between the old owner (pre-flip records) and
   the new owner (post-flip records), neither may fire a window until
   they are re-united;
4. the round's completion event fires once every partitioner has cut
   and every consumer is aligned; the old owner's bucket state then
   transfers (a line-rate stall), CRDT-merges into the new owner, the
   moved windows are forced back to pending there, the gates lift, and
   the round ends — so a capture round never sees a split bucket.

The **all-at-once** strategy runs one round moving every bucket at
once (the stop-the-world rescale); **fluid** spreads the buckets over
``fluid_ranges`` rounds with catch-up gaps in between, so each stall is
a fraction of the bulk one.

A crash aborts the outstanding round, and the global restart that
follows ends the rescale (rescale by restart): the new generation spans
the plan's final node set with the identity route table over its own
consumers — the hash the restart re-buckets restored state by.  Planned
moves not yet completed are reported as rolled back.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.common.errors import ConfigError, StateError
from repro.core.windows import SlidingWindow
from repro.elastic.plan import (
    ACTION_JOIN,
    ACTION_LEAVE,
    ACTION_REBALANCE,
    ElasticPlan,
    transfer_seconds,
)
from repro.simnet.kernel import AllOf, Timeout
from repro.simnet.trace import trace
from repro.state.partition import stable_hash_array

#: Sanitizer scope tag for exchange bucket ownership.
SCOPE = "exchange"


class ElasticExchangeCoordinator:
    """Executes route-table rescale rounds against a partitioned run."""

    def __init__(self, ctx: Any, plan: ElasticPlan, base_nodes: int):
        self.ctx = ctx
        self.plan = plan
        self.base_nodes = base_nodes
        self.buckets = 0
        #: bucket -> owning consumer gid; partitioners fancy-index this
        #: on the hot path, so it is a plain int64 array.
        self.route: Optional[np.ndarray] = None
        self.base_consumers = 0
        self.missed_rescale = False
        self.events: list[dict] = []
        self._suppressed: set[int] = set()
        self._open_rounds = 0
        self._planned_moves = 0
        self._rolled_back = 0
        #: A global restart ended the rescale (no further rounds run).
        self._restarted = False
        self._started_at: Optional[float] = None
        self._ended_at: Optional[float] = None

    # -- wiring ----------------------------------------------------------
    def install(self) -> None:
        """Build the route table once the generation is wired."""
        gen = self.ctx.gen
        if gen.consumer_count <= 0:
            raise StateError("exchange rescale needs at least one consumer")
        self.base_consumers = self.base_nodes * self.ctx.consumers_per_node
        self.buckets = self.base_consumers * max(1, self.plan.fluid_ranges)
        # b % buckets % base == b % base (base divides buckets), so the
        # initial table reproduces the static hash routing exactly and
        # spare-node consumers own nothing until a join moves buckets.
        self.route = (
            np.arange(self.buckets, dtype=np.int64) % self.base_consumers
        )
        san = self.ctx.sim.sanitize
        if san is not None:
            for bucket in range(self.buckets):
                san.note_migration_owner(SCOPE, bucket, int(self.route[bucket]))

    def arm(self) -> None:
        self.ctx.sim.process(self._body(), name="elastic.exchange")

    # -- hooks consulted by the workers ----------------------------------
    def triggers_suppressed(self, gid: int) -> bool:
        """Consumer ``gid`` holds a split bucket; window firing is gated."""
        return gid in self._suppressed

    def end_by_restart(self, survivors: list[int]) -> list[int]:
        """A global restart ends the rescale; return the nodes it spans.

        The new generation gets the plan's final node set — the live
        nodes, spares included for a join, the drained node excluded for
        a leave — and the identity route table over its consumers, so
        records route by the same hash the restart re-buckets restored
        state by.  Moves no completed round made are rolled back.
        """
        nodes = [
            index for index in survivors
            if not (
                self.plan.action == ACTION_LEAVE
                and index == self.plan.drain_node
            )
        ]
        self._restarted = True
        self._rolled_back = self._planned_moves - self._moves_completed()
        if self._started_at is not None and self._ended_at is None:
            self._ended_at = self.ctx.sim.now
        self._suppressed.clear()
        self._open_rounds = 0
        self.buckets = len(nodes) * self.ctx.consumers_per_node
        self.route = np.arange(self.buckets, dtype=np.int64)
        return nodes

    def _moves_completed(self) -> int:
        return sum(event["buckets"] for event in self.events)

    # -- the coordinator body --------------------------------------------
    def _body(self) -> Generator[Any, Any, None]:
        yield Timeout(self.plan.rescale_at)
        if self._restarted:
            return
        gen = self.ctx.gen
        if all(consumer.done for consumer in gen.consumers):
            self.missed_rescale = True
            return
        self._started_at = self.ctx.sim.now
        rounds = self._plan_rounds()
        self._planned_moves = sum(len(r) for r in rounds)
        trace(
            self.ctx.sim, "elastic",
            f"exchange rescale ({self.plan.strategy}): "
            f"{self._planned_moves} bucket move(s), "
            f"{len(rounds)} round(s)",
        )
        for round_id, moves in enumerate(rounds):
            if not moves:
                continue
            stall = yield from self._run_round(round_id, moves)
            if stall is None:
                return  # aborted: the restart that follows ends the rescale
            gap = stall * self.plan.fluid_spread
            if self.plan.strategy == "fluid" and gap > 0:
                yield Timeout(gap)
        self._ended_at = self.ctx.sim.now

    # -- planning ---------------------------------------------------------
    def _consumer_gids_on(self, node_indexes: set[int]) -> list[int]:
        gen = self.ctx.gen
        return [
            gid
            for gid in range(gen.consumer_count)
            if gen.consumer_node(gid) in node_indexes
        ]

    def _plan_moves(self) -> list[tuple[int, int, int]]:
        """(bucket, src_gid, dst_gid) moves realising the plan's action."""
        gen = self.ctx.gen
        owned: dict[int, list[int]] = {
            gid: [] for gid in range(gen.consumer_count)
        }
        for bucket in range(self.buckets):
            owned[int(self.route[bucket])].append(bucket)
        if self.plan.action == ACTION_JOIN:
            spare_nodes = set(range(self.base_nodes, self.ctx.nodes))
            joining = set(self._consumer_gids_on(spare_nodes))
            if not joining:
                raise ConfigError("join planned but no spare consumers exist")
            fair = max(1, self.buckets // gen.consumer_count)
            moves = []
            for dst in sorted(joining):
                for _ in range(fair):
                    donor = max(
                        (g for g in owned if g not in joining and owned[g]),
                        key=lambda g: (len(owned[g]), -g),
                        default=None,
                    )
                    if donor is None:
                        break
                    bucket = owned[donor].pop()
                    owned[dst].append(bucket)
                    moves.append((bucket, donor, dst))
            return moves
        if self.plan.action == ACTION_LEAVE:
            if not 0 <= (self.plan.drain_node or 0) < self.ctx.nodes:
                raise ConfigError(
                    f"drain_node {self.plan.drain_node!r} outside the "
                    f"{self.ctx.nodes}-node cluster"
                )
            leaving = set(self._consumer_gids_on({self.plan.drain_node}))
            survivors = sorted(set(owned) - leaving)
            if not survivors:
                raise ConfigError(
                    f"node {self.plan.drain_node} cannot leave: its "
                    "consumers are the only ones"
                )
            moves = []
            index = 0
            for src in sorted(leaving):
                for bucket in sorted(owned[src]):
                    moves.append(
                        (bucket, src, survivors[index % len(survivors)])
                    )
                    index += 1
            return moves
        if self.plan.action == ACTION_REBALANCE:
            fair = -(-self.buckets // gen.consumer_count)
            surplus = [
                (gid, bucket)
                for gid, buckets in sorted(owned.items())
                for bucket in buckets[fair:]
            ]
            deficit = [
                gid
                for gid, buckets in sorted(owned.items())
                for _ in range(fair - len(buckets))
                if len(buckets) < fair
            ]
            return [
                (bucket, src, dst)
                for (src, bucket), dst in zip(surplus, deficit)
            ]
        raise ConfigError(f"unknown rescale action {self.plan.action!r}")

    def _plan_rounds(self) -> list[list[tuple[int, int, int]]]:
        moves = self._plan_moves()
        if self.plan.strategy == "all-at-once" or len(moves) <= 1:
            return [moves]
        ranges = max(1, self.plan.fluid_ranges)
        per_round = -(-len(moves) // ranges)
        return [
            moves[start:start + per_round]
            for start in range(0, len(moves), per_round)
        ]

    # -- one rescale round -------------------------------------------------
    def _run_round(
        self, round_id: int, moves: list[tuple[int, int, int]]
    ) -> Generator[Any, Any, Optional[float]]:
        """One reroute round; returns its stall, or None once aborted."""
        ctx = self.ctx
        while ctx.barrier is not None:
            yield ctx.barrier.done  # one outstanding round at a time
        gen = ctx.gen
        if self._restarted or gen.halted:
            return None
        san = ctx.sim.sanitize
        srcs = {src for _b, src, _d in moves}
        dsts = {dst for _b, _s, dst in moves}
        watched = sorted(srcs | dsts)
        self._open_rounds += 1
        self._suppressed.update(watched)
        # 1. Atomic route flip: records partitioned from now on flow to
        # the new owners.  The flip and the barrier happen in one
        # coordinator step (no yields), so no partitioner routes between.
        for bucket, src, dst in moves:
            if int(self.route[bucket]) != src:
                raise StateError(
                    f"bucket {bucket} owned by {int(self.route[bucket])}, "
                    f"not the planned source {src}"
                )
            if san is not None:
                san.note_range_copy(SCOPE, bucket, 0, src, dst)
            self.route[bucket] = dst
        barrier = ctx.start_barrier()
        # 2. Seal: every consumer is aligned — all old-routed records for
        # the moved buckets have merged at the old owners.
        if not (yield barrier.done):
            return None
        # 3. Extract the moved buckets' state from the old owners (one
        # coordinator step: the gates are up, nobody else touches it).
        entry_bytes = 16 + ctx.plan.crdt.payload_bytes
        moved_buckets: dict[int, set[int]] = {}
        for bucket, src, _dst in moves:
            moved_buckets.setdefault(src, set()).add(bucket)
        dst_of = {bucket: dst for bucket, _src, dst in moves}
        extracted: list[tuple[int, Any, Any]] = []  # (dst, key, payload)
        for src, buckets in moved_buckets.items():
            consumer = gen.consumers[src]
            taken = 0
            keys, _payloads = consumer.state.scan_columns()
            for key in keys:
                bucket = self._bucket_of(key)
                if bucket not in buckets:
                    continue
                extracted.append((dst_of[bucket], key, consumer.state.remove(key)))
                taken += 1
            consumer.state_bytes = max(
                0.0, consumer.state_bytes - taken * entry_bytes
            )
        moved_bytes = len(extracted) * entry_bytes
        # 4. The transfer itself: the moved state crosses the wire while
        # the involved consumers stay gated — this is the latency window.
        stall = transfer_seconds(
            ctx.cluster.config, moved_bytes, ctx.engine.buffer_bytes
        )
        yield Timeout(stall)
        if barrier.failed:
            return None
        # 5. Re-unite at the new owners, atomically, and lift the gates.
        now = ctx.sim.now
        touched_windows: dict[int, set[int]] = {}
        for dst, key, payload in extracted:
            consumer = gen.consumers[dst]
            consumer.state.absorb(key, payload)
            consumer.state_bytes += entry_bytes
            if isinstance(key, tuple):
                touched_windows.setdefault(dst, set()).update(
                    self._windows_of(int(key[0]))
                )
        for dst, window_ids in touched_windows.items():
            consumer = gen.consumers[dst]
            if consumer.trigger is not None:
                consumer.trigger.restore_pending(sorted(window_ids))
            for window_id in window_ids:
                current = consumer._last_contribution.get(
                    window_id, float("-inf")
                )
                if now > current:
                    consumer._last_contribution[window_id] = now
        if san is not None:
            for bucket, src, dst in moves:
                san.note_ownership_handoff(
                    SCOPE, bucket, src, dst, ranges_copied=1, ranges_total=1
                )
        self._suppressed.difference_update(watched)
        self._open_rounds -= 1
        # Re-fire even already-done consumers: windows restored after a
        # consumer drained still fire here and are collected post-run.
        refires = [
            ctx.sim.process(
                gen.consumers[gid]._check_triggers(),
                name=f"elastic.refire.c{gid}",
            )
            for gid in watched
            if not gen.consumers[gid].halted
        ]
        self.events.append(
            {
                "round": round_id,
                "buckets": len(moves),
                "srcs": sorted(srcs),
                "dsts": sorted(dsts),
                "strategy": self.plan.strategy,
                "moved_keys": len(extracted),
                "moved_bytes": moved_bytes,
                "stall_s": stall,
                "at_s": now,
            }
        )
        trace(
            ctx.sim, "elastic",
            f"round {round_id} moved {len(moves)} bucket(s), "
            f"{len(extracted)} key(s), {moved_bytes} B",
        )
        # The round ends once the re-fires ran: a capture round must not
        # see a window popped from state but not yet emitted.
        yield AllOf(refires)
        ctx.end_barrier(barrier)
        return stall

    def _bucket_of(self, key: Any) -> int:
        group_key = key[1] if isinstance(key, tuple) else key
        return int(
            (
                stable_hash_array(np.asarray([int(group_key)], dtype=np.int64))
                % np.uint64(self.buckets)
            )[0]
        )

    def _windows_of(self, slice_id: int) -> list[int]:
        window = self.ctx.plan.window
        if isinstance(window, SlidingWindow):
            return list(window.windows_of_slice(slice_id))
        return [slice_id]

    # -- post-run accounting ----------------------------------------------
    def check_complete(self) -> None:
        if self.missed_rescale:
            raise ConfigError(
                f"rescale_at {self.plan.rescale_at!r} lands after the "
                "workload horizon: every consumer finished before the "
                "rescale instant (pick an earlier rescale_at)"
            )
        if self._open_rounds:
            raise StateError(
                f"run ended with {self._open_rounds} rescale round(s) "
                "still open (consumers gated at drain)"
            )

    def report(self) -> dict:
        return {
            "strategy": self.plan.strategy,
            "action": self.plan.action,
            "events": list(self.events),
            "rounds": len(self.events),
            "moved_bytes": sum(e["moved_bytes"] for e in self.events),
            "moves_completed": self._moves_completed(),
            "moves_rolled_back": self._rolled_back,
            "started_at_s": self._started_at,
            "ended_at_s": self._ended_at,
        }
