"""Fault plans: the declarative, seed-reproducible chaos schedule.

A :class:`FaultPlan` is an ordered tuple of :class:`FaultEvent` items.
Each event names a *kind*, a simulated instant ``at_s``, a *target*
(executor/node index, or a ``(src, dst)`` pair for channel-level
faults), and kind-specific knobs (duration, degradation factor, count).
Plans are plain data: they can be built explicitly, from the named
presets the ``chaos`` harness command exposes, or drawn from a seeded
:class:`~repro.common.rng.RngTree` stream — the same seed always yields
the same schedule, which is what makes chaos runs regression-testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from repro.common.errors import FaultError
from repro.common.rng import RngTree
from repro.common.suggest import unknown_name_message
from repro.core.system import STRATEGY_ASYNC_SNAPSHOT


class FaultKind(str, Enum):
    """The failure modes the injector knows how to apply."""

    #: Kill one executor/node: its schedulers halt at the next task
    #: switch, peers detect the death after a timeout, and epoch-based
    #: recovery promotes a surviving helper.
    NODE_CRASH = "node-crash"
    #: Degrade one node's NIC TX/RX bandwidth to ``factor`` of nominal
    #: for ``duration_s`` (a flapping link / congested uplink).
    NIC_FLAP = "nic-flap"
    #: Drop up to ``count`` RDMA WRITEs posted by the target node inside
    #: the window — the sender detects the missing ACK and retransmits
    #: with bounded exponential backoff.
    DROP_CHUNK = "drop-chunk"
    #: Re-send up to ``count`` epoch deltas shipped by the target
    #: executor (a retransmission-induced duplicate); the leader's epoch
    #: ledger must deduplicate them.
    DUPLICATE_DELTA = "duplicate-delta"
    #: Pause the target executor's worker schedulers for ``duration_s``
    #: (a descheduled / GC-stalled helper).
    STALL = "stall"
    #: The target executor withholds credit returns on all its inbound
    #: channels for ``duration_s``, starving its producers.
    CREDIT_STARVATION = "credit-starvation"
    #: Symmetric partition: cut both link directions between the target
    #: node and every other node for ``duration_s``.  Heartbeats are
    #: lost (the detector sees the cut); data-plane transfers hold and
    #: complete at heal (transport-level retransmission).
    NET_PARTITION = "net-partition"
    #: Asymmetric partition: cut only the target's *outbound* links for
    #: ``duration_s`` — the target hears everyone, nobody hears the
    #: target.  The majority suspects (and may fence out) a perfectly
    #: healthy leader; the isolated side never reaches quorum.
    ASYM_PARTITION = "asym-partition"
    #: Gray failure, compute flavour: the target node's cores run at
    #: ``factor`` of nominal speed (``0 < factor < 1``) for
    #: ``duration_s`` — thermal throttling, a noisy neighbour, a
    #: background compaction.  Unlike the binary STALL the node keeps
    #: making (slow) progress, so heartbeats flow and the failure
    #: detector sees a healthy peer; only service-time statistics give
    #: the straggler away.
    SLOW_NODE = "slow-node"
    #: Gray failure, network flavour: data-plane transfers touching the
    #: target node (or just the ``peer`` link when one is named) take
    #: ``factor``x (``factor > 1``) the nominal propagation + switch
    #: latency for ``duration_s``.  Nothing is dropped; everything is
    #: late — the loss-oriented recovery plane never triggers.
    JITTER = "jitter"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    kind: FaultKind
    at_s: float
    target: int
    duration_s: float = 0.0
    factor: float = 1.0
    count: int = 1
    #: For JITTER only: inflate just the ``target <-> peer`` link pair
    #: instead of every link touching ``target`` (``None`` = all links).
    peer: Optional[int] = None

    def __post_init__(self) -> None:
        # Every kind currently takes a scalar executor/node index; a
        # (src, dst) pair (or any other non-int) used to slip through
        # here and fail later with an opaque TypeError inside the
        # injector — reject it eagerly with a usable message.
        if isinstance(self.target, bool) or not isinstance(self.target, int):
            raise FaultError(
                f"fault {self.kind.value}: target must be a single executor "
                f"index, got {self.target!r} (pair targets are not a valid "
                "scalar target)"
            )
        if self.at_s < 0:
            raise FaultError(f"fault {self.kind.value} scheduled in the past: {self.at_s}")
        if self.duration_s < 0:
            raise FaultError(f"fault {self.kind.value}: negative duration {self.duration_s}")
        if self.count <= 0:
            raise FaultError(f"fault {self.kind.value}: count must be positive, got {self.count}")
        if self.factor <= 0:
            raise FaultError(f"fault {self.kind.value}: factor must be positive, got {self.factor}")
        if self.kind in (FaultKind.NET_PARTITION, FaultKind.ASYM_PARTITION):
            if self.duration_s <= 0:
                raise FaultError(
                    f"fault {self.kind.value}: a partition needs a positive "
                    "duration (permanent partitions would deadlock the run)"
                )
        if self.kind is FaultKind.SLOW_NODE:
            # factor <= 0 is already rejected above; >= 1 means "not
            # slow at all" (or a speed-up), which is always a confused
            # plan rather than a gray failure.
            if not self.factor < 1.0:
                raise FaultError(
                    f"fault {self.kind.value}: slowdown factor must be in "
                    f"(0, 1) — the fraction of nominal speed — got {self.factor}"
                )
            if self.duration_s <= 0:
                raise FaultError(
                    f"fault {self.kind.value}: needs a positive duration "
                    "(a zero-length slowdown never degrades anything)"
                )
        if self.kind is FaultKind.JITTER:
            if self.factor <= 1.0:
                raise FaultError(
                    f"fault {self.kind.value}: latency factor must be > 1 "
                    f"(a multiplier on nominal link latency), got {self.factor}"
                )
            if self.duration_s <= 0:
                raise FaultError(
                    f"fault {self.kind.value}: needs a positive duration "
                    "(a zero-length jitter window never delays anything)"
                )
        if self.peer is not None:
            if self.kind is not FaultKind.JITTER:
                raise FaultError(
                    f"fault {self.kind.value}: peer is only meaningful for "
                    "jitter (it names the far end of the inflated link)"
                )
            if isinstance(self.peer, bool) or not isinstance(self.peer, int):
                raise FaultError(
                    f"fault {self.kind.value}: peer must be a single executor "
                    f"index, got {self.peer!r}"
                )
            if self.peer == self.target:
                raise FaultError(
                    f"fault {self.kind.value}: peer {self.peer} equals the "
                    "target; a node has no link to itself"
                )


#: Named single-fault presets understood by ``repro chaos --fault``.
#: Each maps to a builder on :class:`FaultPlan`.
PRESETS = (
    "leader-crash",
    "nic-flap",
    "drop-chunk",
    "duplicate-delta",
    "stalled-helper",
    "credit-starvation",
    "mixed",
    "net-partition",
    "asym-partition",
    "cascade",
    "buddy-crash",
    "slow-node",
    "jitter",
)

#: Presets that schedule two NODE_CRASH events and therefore need a
#: third executor to survive.
MULTI_CRASH_PRESETS = ("cascade", "buddy-crash")

#: Fixed part of the spacing between the two crashes of a multi-crash
#: preset.  Fencing a victim costs roughly one heartbeat flight drain
#: plus one poll round trip at the default NIC timings (~2.9 us) no
#: matter how short the run is; a second crash inside that window kills
#: a second *unconfirmed* member, and a 3-node cluster then permanently
#: loses quorum (a correct dead end — the injector raises FaultError).
#: The presets therefore land the second crash after the first fence has
#: confirmed but while the far slower recovery (checkpoint restore +
#: input replay) is still in flight.
_SECOND_CRASH_GAP_S = 3.5e-6


def fault_tunables(
    horizon_s: float, recovery_strategy: Optional[str] = None
) -> dict:
    """Fault-handling ``fault_overrides`` scaled to a run's fail-free horizon.

    The defaults are wall-clock scale; a simulated run lasts micro- to
    milliseconds, so whoever places a plan on a horizon scales detection,
    retransmission and credit timeouts to it — and, for async-snapshot, a
    handful of marker rounds across the run: enough to restore from,
    cheap enough to measure against epoch-buddy's per-cut checkpoints.
    """
    tunables = dict(
        detect_s=horizon_s * 0.02,
        watchdog_period_s=horizon_s * 0.01,
        rto_s=max(5e-6, horizon_s * 0.001),
        credit_timeout_s=max(2e-5, horizon_s * 0.005),
    )
    if recovery_strategy == STRATEGY_ASYNC_SNAPSHOT:
        tunables["snapshot_interval_s"] = horizon_s * 0.04
    return tunables


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, validated schedule of fault events."""

    events: tuple[FaultEvent, ...] = ()
    #: Seed the plan was derived from (0 for hand-built plans); recorded
    #: so reports can name the exact chaos configuration.
    seed: int = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def validate(self, executors: int, horizon_s: Optional[float] = None) -> None:
        """Reject malformed plans before the injector arms them.

        Checks: every target is inside the deployment; no node crashes
        twice; no event targets a node at/after the instant an earlier
        event crashed it (it would silently no-op); at least one
        executor survives; and, when ``horizon_s`` is given (the chaos
        CLI passes the fail-free run length), every event fires inside
        the horizon — an event scheduled past the end of the run would
        never fire, which is almost always a mis-scaled plan.
        """
        for event in self.events:
            if not 0 <= event.target < executors:
                raise FaultError(
                    f"fault {event.kind.value} targets executor {event.target}, "
                    f"but the deployment has {executors}"
                )
        crashes = [e for e in self.events if e.kind is FaultKind.NODE_CRASH]
        if len({e.target for e in crashes}) < len(crashes):
            raise FaultError("a node can only crash once per plan")
        if crashes and len(crashes) >= executors:
            raise FaultError(
                f"plan crashes all {executors} executors; at least one must survive"
            )
        crash_time = {e.target: e.at_s for e in crashes}
        for event in self.events:
            if event.kind is FaultKind.NODE_CRASH:
                continue
            crashed_at = crash_time.get(event.target)
            if crashed_at is not None and event.at_s >= crashed_at:
                raise FaultError(
                    f"fault {event.kind.value} targets executor {event.target} "
                    f"at t={event.at_s}, but the plan crashes it at "
                    f"t={crashed_at}; events against a dead node never fire"
                )
        for event in self.events:
            if event.peer is not None and not 0 <= event.peer < executors:
                raise FaultError(
                    f"fault {event.kind.value} names peer {event.peer} for "
                    f"the link from executor {event.target}, but the "
                    f"deployment has {executors}; there is no such link"
                )
        # Overlapping slow-node windows on one target would stack
        # multiplicatively on apply and restore to the *first* window's
        # nominal speed when the shorter one ends — silently wrong
        # either way, so reject the plan outright.
        slowdowns = sorted(
            (e for e in self.events if e.kind is FaultKind.SLOW_NODE),
            key=lambda e: (e.target, e.at_s),
        )
        for prev, event in zip(slowdowns, slowdowns[1:]):
            if prev.target == event.target and event.at_s < prev.at_s + prev.duration_s:
                raise FaultError(
                    f"overlapping slow-node windows on executor {event.target}: "
                    f"[{prev.at_s}, {prev.at_s + prev.duration_s}) and "
                    f"[{event.at_s}, {event.at_s + event.duration_s}); "
                    "slowdowns do not compose — merge them into one window"
                )
        if horizon_s is not None:
            for event in self.events:
                if event.at_s >= horizon_s:
                    raise FaultError(
                        f"fault {event.kind.value} scheduled at t={event.at_s} "
                        f"but the run's horizon is {horizon_s}; it would "
                        "never fire"
                    )

    def crash_targets(self) -> list[int]:
        """Executor ids the plan will crash, in schedule order."""
        return [e.target for e in sorted(self.events, key=lambda e: e.at_s)
                if e.kind is FaultKind.NODE_CRASH]

    # -- builders ---------------------------------------------------------
    @classmethod
    def preset(
        cls,
        name: str,
        seed: int,
        executors: int,
        horizon_s: float,
    ) -> "FaultPlan":
        """Build a named single-fault (or ``mixed``) plan.

        ``horizon_s`` is the expected fail-free run length; fault times
        are placed at seed-drawn fractions of it, so the same seed with
        the same workload always produces the same schedule.
        """
        if executors < 2:
            raise FaultError("chaos plans need at least 2 executors")
        rng = RngTree(seed).generator("faults", name)
        at = float(horizon_s) * (0.3 + 0.3 * float(rng.random()))
        # The victim is a seed-drawn non-zero executor, so executor 0 —
        # the deterministic promotion target (lowest id) — survives.
        victim = 1 + int(rng.integers(0, executors - 1))
        if name == "leader-crash":
            events = (FaultEvent(FaultKind.NODE_CRASH, at, victim),)
        elif name == "nic-flap":
            events = (
                FaultEvent(
                    FaultKind.NIC_FLAP, at, victim,
                    duration_s=horizon_s * 0.2, factor=0.05,
                ),
            )
        elif name == "drop-chunk":
            events = (
                FaultEvent(
                    FaultKind.DROP_CHUNK, at, victim,
                    duration_s=horizon_s, count=3,
                ),
            )
        elif name == "duplicate-delta":
            events = (
                FaultEvent(
                    FaultKind.DUPLICATE_DELTA, at, victim,
                    duration_s=horizon_s, count=3,
                ),
            )
        elif name == "stalled-helper":
            events = (
                FaultEvent(
                    FaultKind.STALL, at, victim, duration_s=horizon_s * 0.15,
                ),
            )
        elif name == "credit-starvation":
            events = (
                FaultEvent(
                    FaultKind.CREDIT_STARVATION, at, victim,
                    duration_s=horizon_s * 0.1,
                ),
            )
        elif name == "mixed":
            flap_at = float(horizon_s) * (0.1 + 0.1 * float(rng.random()))
            dup_victim = 1 + int(rng.integers(0, executors - 1))
            events = (
                FaultEvent(
                    FaultKind.NIC_FLAP, flap_at, 0,
                    duration_s=horizon_s * 0.1, factor=0.1,
                ),
                FaultEvent(
                    FaultKind.DUPLICATE_DELTA, flap_at, dup_victim,
                    duration_s=horizon_s, count=2,
                ),
                FaultEvent(FaultKind.NODE_CRASH, at, victim),
            )
        elif name == "net-partition":
            # Short symmetric cut: heals before the confirmation grace
            # expires, so the fence aborts and the cluster rides it out
            # with zero takeovers (the data plane holds-and-delivers).
            events = (
                FaultEvent(
                    FaultKind.NET_PARTITION, at, victim,
                    duration_s=horizon_s * 0.02,
                ),
            )
        elif name == "asym-partition":
            # Long one-way cut of the victim's outbound links: the
            # majority suspects a perfectly healthy node, reaches quorum,
            # and fences it out; the victim itself never reaches quorum.
            events = (
                FaultEvent(
                    FaultKind.ASYM_PARTITION, at, victim,
                    duration_s=horizon_s * 0.2,
                ),
            )
        elif name == "cascade":
            # Second crash lands while the first victim's recovery is in
            # flight; executor 0 is the first promotion target, so losing
            # it forces a takeover-of-the-takeover.
            if executors < 3:
                raise FaultError(
                    f"preset {name!r} crashes two executors and needs at "
                    f"least 3; the deployment has {executors}"
                )
            gap = _SECOND_CRASH_GAP_S + horizon_s * 0.1
            events = (
                FaultEvent(FaultKind.NODE_CRASH, at, victim),
                FaultEvent(FaultKind.NODE_CRASH, at + gap, 0),
            )
        elif name == "buddy-crash":
            # The victim's checkpoint buddy dies first, so when the
            # victim follows there is no committed checkpoint to restore
            # from and recovery falls back to full input replay.
            if executors < 3:
                raise FaultError(
                    f"preset {name!r} crashes two executors and needs at "
                    f"least 3; the deployment has {executors}"
                )
            buddy = (victim + 1) % executors
            if buddy == 0:
                # Keep executor 0 (the deterministic promotion target)
                # alive: shift the victim so its buddy is non-zero.
                victim = 1
                buddy = 2
            gap = _SECOND_CRASH_GAP_S + horizon_s * 0.1
            events = (
                FaultEvent(FaultKind.NODE_CRASH, at, buddy),
                FaultEvent(FaultKind.NODE_CRASH, at + gap, victim),
            )
        elif name == "slow-node":
            # A long fractional slowdown: the victim keeps heartbeating
            # and processing, just at a quarter speed — the straggler
            # detector, not the failure detector, has to catch it.
            events = (
                FaultEvent(
                    FaultKind.SLOW_NODE, at, victim,
                    duration_s=horizon_s * 0.3, factor=0.25,
                ),
            )
        elif name == "jitter":
            # Inflate every link touching the victim: transfers complete
            # (no retransmission, no loss) but arrive late.
            events = (
                FaultEvent(
                    FaultKind.JITTER, at, victim,
                    duration_s=horizon_s * 0.3, factor=8.0,
                ),
            )
        else:
            raise FaultError(unknown_name_message("fault preset", name, PRESETS))
        return cls(events=events, seed=seed)
