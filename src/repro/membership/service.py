"""Per-executor membership agents over the simulated network.

One agent runs per executor as a simulation process (the membership
daemon of a real deployment).  Every heartbeat period it:

1. sends a heartbeat **datagram** to each peer it still believes in —
   datagrams traverse the NIC pipes but are *dropped* at a cut link, so
   the failure detector genuinely sees partitions while the reliable
   data plane holds-and-retransmits across them;
2. evaluates its own :class:`~repro.membership.detector.PhiAccrualDetector`
   and, for any newly suspected peer, starts a **fence proposal**.

A fence proposal polls every other member the proposer believes alive;
a member acks only if *its own* detector also suspects the victim at
receipt time (views can disagree — an asymmetric cut makes the majority
suspect the victim while the victim suspects nobody).  With
``quorum_size`` votes the proposer waits a confirmation grace period,
re-checks its detector (a healed partition resumes heartbeats and
aborts the fence), and only then executes the takeover through the
injector: term bump, death announcement, promotion, recovery.

Death announcements travel as **reliable** sends, so members on the far
side of a partition learn the outcome when the partition heals — that,
plus the term bump, is the heal-reconciliation protocol: a stale leader
is already fenced by term, and its retained deltas replay through the
epoch ledger.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import ConfigError
from repro.membership.detector import PhiAccrualDetector
from repro.membership.quorum import quorum_size
from repro.simnet.kernel import AllOf, Timeout
from repro.simnet.trace import trace

#: Wire size of one heartbeat datagram (UD send: GRH + sequence + term).
HEARTBEAT_BYTES = 64
#: Wire size of one fence proposal / ack / death announcement.
CONTROL_MSG_BYTES = 96


class _AgentState:
    """One executor's private membership view."""

    __slots__ = ("detector", "confirmed_dead", "proposing", "retry_after")

    def __init__(self, detector: PhiAccrualDetector):
        self.detector = detector
        #: Peers whose fence committed and whose announcement reached us.
        self.confirmed_dead: set[int] = set()
        #: Victims this agent currently has a fence proposal in flight for.
        self.proposing: set[int] = set()
        #: Victim -> earliest time a new proposal may start (backoff).
        self.retry_after: dict[int, float] = {}


class MembershipService:
    """All membership agents of one deployment, plus shared bookkeeping."""

    def __init__(
        self,
        injector: Any,
        *,
        heartbeat_period_s: float,
        phi_threshold: float,
        confirm_s: float,
        ack_timeout_s: float,
    ):
        if heartbeat_period_s <= 0 or confirm_s < 0 or ack_timeout_s <= 0:
            raise ConfigError("membership timing parameters must be positive")
        self.injector = injector
        self.sim = injector.sim
        self.cluster = injector.cluster
        self.heartbeat_period_s = heartbeat_period_s
        self.phi_threshold = phi_threshold
        self.confirm_s = confirm_s
        self.ack_timeout_s = ack_timeout_s

        self._member_ids = [e.executor_id for e in injector.executors]
        self._node_of = {
            e.executor_id: e.node.index for e in injector.executors
        }
        self.agents: dict[int, _AgentState] = {}
        for member in self._member_ids:
            peers = [m for m in self._member_ids if m != member]
            self.agents[member] = _AgentState(
                PhiAccrualDetector(
                    member, peers, heartbeat_period_s, threshold=phi_threshold
                )
            )
        #: Victim -> sim time any agent first crossed the phi threshold.
        self.first_suspected: dict[int, float] = {}
        self.stats = {
            "heartbeats_sent": 0,
            "heartbeats_delivered": 0,
            "heartbeats_lost": 0,
            "fence_proposals": 0,
            "fences_rejected": 0,
            "fences_aborted": 0,
        }

    # -- wiring -------------------------------------------------------------
    def start(self) -> None:
        """Launch one agent process per executor."""
        for member in self._member_ids:
            self.sim.process(
                self._agent_proc(member), name=f"membership.agent{member}"
            )

    # -- per-node views (consumed by the executors' watchdogs) --------------
    def dead_peers_for(self, executor_id: int) -> list[int]:
        """Peers ``executor_id``'s own view has confirmed dead, ascending.

        An executor severs channels to a peer only once the cluster fenced
        it *and* the announcement reached this node — which a partition
        can delay until heal.
        """
        return sorted(self.agents[executor_id].confirmed_dead)

    def view(self, executor_id: int) -> PhiAccrualDetector:
        """The raw suspicion view of one executor (tests, diagnostics)."""
        return self.agents[executor_id].detector

    # -- the agent loop -----------------------------------------------------
    def _agent_proc(self, me: int):
        state = self.agents[me]
        injector = self.injector
        while True:
            if injector.is_crashed(me) or injector.deployment_finished():
                return
            now = self.sim.now
            for peer in state.detector.peers:
                if peer in state.confirmed_dead:
                    continue
                self.stats["heartbeats_sent"] += 1
                self.sim.process(
                    self._heartbeat_proc(me, peer),
                    name=f"hb:{me}->{peer}",
                )
            for peer in state.detector.suspects(now):
                if (
                    peer in state.confirmed_dead
                    or peer in state.proposing
                    or now < state.retry_after.get(peer, 0.0)
                    or injector.takeover_started(peer)
                ):
                    continue
                if peer not in self.first_suspected:
                    self.first_suspected[peer] = now
                state.proposing.add(peer)
                self.stats["fence_proposals"] += 1
                self.sim.process(
                    self._fence_proc(me, peer), name=f"fence:{me}!{peer}"
                )
            yield Timeout(self.heartbeat_period_s)

    def _heartbeat_proc(self, src: int, dst: int):
        link = self.cluster.link(self._node_of[src], self._node_of[dst])
        delivered = yield link.send_datagram(HEARTBEAT_BYTES)
        if delivered and not self.injector.is_crashed(dst):
            self.agents[dst].detector.heartbeat(src, self.sim.now)
            self.stats["heartbeats_delivered"] += 1
        else:
            self.stats["heartbeats_lost"] += 1

    # -- fencing ------------------------------------------------------------
    def _fence_proc(self, proposer: int, victim: int):
        state = self.agents[proposer]
        # Quorum is a majority of the membership *as the proposer sees
        # it*: members it has confirmed dead through earlier fences no
        # longer vote (Raft-style reconfiguration), which is what lets a
        # shrinking cluster fence a second victim.
        members = [
            m for m in self._member_ids if m not in state.confirmed_dead
        ]
        needed = quorum_size(len(members))
        voters = [m for m in members if m not in (proposer, victim)]
        votes = 1  # the proposer's own vote
        if voters:
            polls = [
                self.sim.process(
                    self._poll_proc(proposer, peer, victim),
                    name=f"poll:{proposer}->{peer}!{victim}",
                )
                for peer in voters
            ]
            results = yield AllOf(polls)
            votes += sum(1 for acked in results if acked)
        else:
            yield Timeout(0.0)
        if votes < needed:
            # An isolated minority lands here forever: it can suspect the
            # whole majority but can never collect a majority of acks, so
            # it can never promote — no split-brain.
            self.stats["fences_rejected"] += 1
            trace(
                self.sim, "membership",
                f"fence of {victim} by {proposer} rejected",
                votes=votes, needed=needed,
            )
            state.proposing.discard(victim)
            state.retry_after[victim] = self.sim.now + 2 * self.heartbeat_period_s
            self.injector.check_quorum_feasible()
            return
        self.injector.note_quorum(victim, proposer, votes, self.sim.now)
        # Confirmation grace: a short partition heals here — heartbeats
        # resume, phi collapses, and the fence aborts without a takeover.
        yield Timeout(self.confirm_s)
        if self.injector.takeover_started(victim):
            state.proposing.discard(victim)
            return  # someone else's quorum executed first
        if not state.detector.is_suspect(victim, self.sim.now):
            self.stats["fences_aborted"] += 1
            trace(
                self.sim, "membership",
                f"fence of {victim} by {proposer} aborted (peer recovered)",
            )
            state.proposing.discard(victim)
            state.retry_after[victim] = self.sim.now + 2 * self.heartbeat_period_s
            return
        self.injector.execute_takeover(victim, proposer=proposer, votes=votes)
        state.proposing.discard(victim)

    def _poll_proc(self, proposer: int, peer: int, victim: int):
        """One PROPOSE/ACK round trip; returns whether ``peer`` acked."""
        out = self.cluster.link(self._node_of[proposer], self._node_of[peer])
        delivered = yield out.send_datagram(CONTROL_MSG_BYTES)
        if not delivered or self.injector.is_crashed(peer):
            yield Timeout(self.ack_timeout_s)  # no response: wait it out
            return False
        peer_state = self.agents[peer]
        vote = (
            victim in peer_state.confirmed_dead
            or peer_state.detector.is_suspect(victim, self.sim.now)
        )
        back = self.cluster.link(self._node_of[peer], self._node_of[proposer])
        returned = yield back.send_datagram(CONTROL_MSG_BYTES)
        if not returned:
            yield Timeout(self.ack_timeout_s)
            return False
        return vote

    # -- death announcements ------------------------------------------------
    def announce_death(self, victim: int, announcer: int) -> None:
        """Broadcast a committed fence to every live member.

        The announcer's own view updates immediately; everyone else's
        when the (reliable) announcement lands — across a partition that
        is at heal time, which is exactly when their watchdogs may
        safely sever channels to the fenced peer.
        """
        for member in self._member_ids:
            if member == victim or self.injector.is_crashed(member):
                continue
            if member == announcer:
                self.agents[member].confirmed_dead.add(victim)
                continue
            self.sim.process(
                self._announce_proc(announcer, member, victim),
                name=f"announce:{announcer}->{member}!{victim}",
            )

    def _announce_proc(self, src: int, dst: int, victim: int):
        link = self.cluster.link(self._node_of[src], self._node_of[dst])
        yield link.send(CONTROL_MSG_BYTES)
        if not self.injector.is_crashed(dst):
            self.agents[dst].confirmed_dead.add(victim)

    # -- reporting ----------------------------------------------------------
    def report(self) -> dict:
        return {
            **self.stats,
            "first_suspected": {
                str(v): t for v, t in sorted(self.first_suspected.items())
            },
        }
