"""Pluggable runtime invariant checkers (``sim.sanitize``).

A :class:`Sanitizer` keeps *shadow* accounts — independent of the data
structures it audits — and raises a structured
:class:`InvariantViolation` the instant an invariant breaks, with the
simulated time and the tail of the trace timeline attached.  Because
the shadow state is maintained from hook calls at the call sites (not
inside the audited methods), a bug *inside* e.g.
:meth:`~repro.state.epoch.EpochLedger.admit` is still caught: the
sanitizer re-derives what the correct answer would have been.

Invariant catalog (see ``docs/testing.md``):

``event-time``
    Simulated time never moves backwards across kernel events (guards
    the heap + ready-deque merge of the fast run loop).
``credit-conservation``
    Per channel: consumers return no more credits than buffers sent,
    producers apply no more credits than consumers returned, and at
    most ``credits`` buffers are ever outstanding.
``buffer-lifecycle``
    A producer never posts a WRITE into a ring slot whose footer is
    still set (reuse before the consumer released the buffer).
``clock-monotonic`` / ``watermark-monotonic``
    Vector-clock entries and local watermarks never regress.
``ledger-exactly-once``
    Each ``(operator, partition, helper, epoch)`` delta is admitted at
    most once, admitted epochs are dense per helper, and a delta that
    extends the dense sequence is never rejected as a duplicate.
``window-fire``
    A window fires only when the clock frontier has passed its end
    (property P1: no executor can still contribute to it).
``snapshot-consistency``
    A completed Chandy–Lamport round forms a consistent cut: no
    post-marker record leaks into any capture (receiver frontiers never
    pass the sender's marker boundary; aligned rounds report zero
    post-marker merges), and every pre-marker record still in flight at
    capture time is accounted for as channel state — the recorded
    epochs per ``(operator, partition)`` stream fill ``(frontier,
    boundary]`` exactly, with no gaps and nothing beyond the marker.
``backpressure-conservation``
    Per ingress source, every admission splits its batch exactly:
    ``offered = admitted + shed`` both per batch and cumulatively
    (re-derived from shadow counters, so the coordinator cannot lose a
    record in its own books), the offered count never regresses, a
    record is only ever shed while a shedding policy is active, and the
    backlog estimate never goes negative.
``no-silent-drop``
    End of run, per executor: every offered record is accounted for
    (``offered = admitted + shed``) and every admitted record was
    actually processed by the worker pipeline — nothing vanished
    between admission and processing without being logged as shed.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Optional

from repro.common.errors import ReproError


class InvariantViolation(ReproError):
    """A runtime invariant check failed.

    Carries enough structure for the harness to report and shrink:
    which invariant, at what simulated time, with what context, and the
    tail of the trace timeline if a tracer was attached.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        sim_time: float = 0.0,
        context: Optional[dict] = None,
        trace_tail: str = "",
    ):
        self.invariant = invariant
        self.message = message
        self.sim_time = sim_time
        self.context = dict(context or {})
        self.trace_tail = trace_tail
        super().__init__(self.render())

    def render(self) -> str:
        parts = [f"[{self.invariant}] {self.message} (sim t={self.sim_time:.9g}s)"]
        if self.context:
            parts.append(
                "  context: "
                + " ".join(f"{k}={v}" for k, v in sorted(self.context.items()))
            )
        if self.trace_tail:
            parts.append(self.trace_tail)
        return "\n".join(parts)


class _ChannelAccount:
    """Cumulative shadow counters for one channel's credit protocol."""

    __slots__ = ("name", "credits", "sent", "returned", "applied")

    def __init__(self, name: str, credits: int):
        self.name = name
        self.credits = credits
        self.sent = 0       # buffers posted by the producer (incl. EOS)
        self.returned = 0   # credit messages posted by the consumer
        self.applied = 0    # credits folded into the producer's balance


class Sanitizer:
    """The invariant-checker bundle attached at ``sim.sanitize``.

    Construction does not change any behaviour by itself; components
    consult ``sim.sanitize`` at their hook points and call the ``note_``
    / ``check_`` methods below.  Every successful check increments
    :attr:`checks` so a run can prove the hooks actually fired.
    """

    def __init__(self, sim: Any, trace_limit: int = 25):
        self.sim = sim
        self.trace_limit = trace_limit
        #: invariant name -> number of checks performed (not violations).
        self.checks: Counter = Counter()
        self._channels: dict[int, _ChannelAccount] = {}
        self._clock_entries: dict[tuple[int, int], float] = {}
        self._clock_names: dict[int, str] = {}
        self._watermarks: dict[int, float] = {}
        self._admitted: dict[int, set] = {}
        self._ledger_last: dict[tuple, int] = {}
        self._last_event_time = float("-inf")
        # Live-migration shadow state: (scope, partition) -> owner,
        # copied sub-range ids, and seen transfer-apply tokens.
        self._owners: dict[tuple, int] = {}
        self._range_copies: dict[tuple, set] = {}
        self._transfer_tokens: set = set()
        # Overload shadow accounting: source -> (offered, admitted, shed)
        # cumulative counters re-derived from the per-batch deltas.
        self._overload_accounts: dict[str, tuple[int, int, int]] = {}

    # -- violation plumbing -------------------------------------------------
    def fail(self, invariant: str, message: str, **context: Any) -> None:
        """Raise an :class:`InvariantViolation` with trace context."""
        tracer = getattr(self.sim, "tracer", None)
        tail = (
            tracer.render_timeline(limit=self.trace_limit)
            if tracer is not None and len(tracer)
            else ""
        )
        raise InvariantViolation(
            invariant, message, sim_time=self.sim.now, context=context,
            trace_tail=tail,
        )

    def check_counts(self) -> dict[str, int]:
        """JSON-able snapshot of how many checks ran, per invariant."""
        return dict(self.checks)

    # -- kernel: event-time monotonicity ------------------------------------
    def note_event(self, when: float, now: float) -> None:
        """One kernel event about to fire at ``when`` (current time ``now``)."""
        self.checks["event-time"] += 1
        if when < now or when < self._last_event_time:
            self.fail(
                "event-time",
                f"event scheduled at {when!r} fires after time reached "
                f"{max(now, self._last_event_time)!r} (kernel ordering broken)",
                when=when, now=now,
            )
        self._last_event_time = when

    # -- channel: credit conservation + buffer lifecycle --------------------
    def _account(self, key: int, name: str, credits: int) -> _ChannelAccount:
        account = self._channels.get(key)
        if account is None:
            account = self._channels[key] = _ChannelAccount(name, credits)
        return account

    def note_send(self, key: int, name: str, credits: int) -> None:
        """Producer posted one buffer (after spending a credit)."""
        self.checks["credit-conservation"] += 1
        account = self._account(key, name, credits)
        account.sent += 1
        outstanding = account.sent - account.applied
        if outstanding > account.credits:
            self.fail(
                "credit-conservation",
                f"{name}: {outstanding} buffers outstanding exceeds the "
                f"channel's {account.credits} credits (overspend)",
                sent=account.sent, applied=account.applied,
                credits=account.credits,
            )

    def note_credit_return(self, key: int, name: str, count: int, credits: int) -> None:
        """Consumer posted ``count`` credits back to the producer."""
        self.checks["credit-conservation"] += 1
        account = self._account(key, name, credits)
        account.returned += count
        if account.returned > account.sent:
            self.fail(
                "credit-conservation",
                f"{name}: consumer returned {account.returned} credits but "
                f"only {account.sent} buffers were ever sent (phantom credit)",
                returned=account.returned, sent=account.sent,
            )

    def note_credit_apply(self, key: int, name: str, count: int, credits: int) -> None:
        """Producer folded ``count`` received credits into its balance."""
        self.checks["credit-conservation"] += 1
        account = self._account(key, name, credits)
        account.applied += count
        if account.applied > account.returned:
            self.fail(
                "credit-conservation",
                f"{name}: producer applied {account.applied} credits but the "
                f"consumer only returned {account.returned} (credit forged)",
                applied=account.applied, returned=account.returned,
            )

    def check_buffer_write(self, name: str, queue: Any, slot: int) -> None:
        """Producer is about to post into ring slot ``slot``."""
        self.checks["buffer-lifecycle"] += 1
        if queue.poll_slot(slot):
            self.fail(
                "buffer-lifecycle",
                f"{name}: posting into ring slot {slot % queue.credits} whose "
                "footer is still set (buffer reused before the consumer "
                "released it)",
                slot=slot, ring_slot=slot % queue.credits,
                credits=queue.credits,
            )

    # -- state: clock / watermark monotonicity ------------------------------
    def note_clock_entry(self, key: int, name: str, executor_id: int, value: float) -> None:
        """A vector-clock entry now reads ``value`` after an advance."""
        self.checks["clock-monotonic"] += 1
        self._clock_names[key] = name
        shadow_key = (key, executor_id)
        previous = self._clock_entries.get(shadow_key, float("-inf"))
        if value < previous:
            self.fail(
                "clock-monotonic",
                f"vector clock {name}: entry for executor {executor_id} "
                f"regressed from {previous!r} to {value!r}",
                executor=executor_id, previous=previous, value=value,
            )
        self._clock_entries[shadow_key] = value

    def note_watermark(self, key: int, executor_id: int, value: float) -> None:
        """An executor's local watermark now reads ``value``."""
        self.checks["watermark-monotonic"] += 1
        previous = self._watermarks.get(key, float("-inf"))
        if value < previous:
            self.fail(
                "watermark-monotonic",
                f"executor {executor_id}: watermark regressed from "
                f"{previous!r} to {value!r}",
                executor=executor_id, previous=previous, value=value,
            )
        self._watermarks[key] = value

    # -- state: ledger exactly-once admission --------------------------------
    def note_ledger_seed(
        self, key: int, operator_id: str, partition: int, helper: int, epoch: int
    ) -> None:
        """The ledger installed an admission floor (checkpoint restore)."""
        self.checks["ledger-exactly-once"] += 1
        shadow_key = (key, operator_id, partition, helper)
        if epoch > self._ledger_last.get(shadow_key, -1):
            self._ledger_last[shadow_key] = epoch

    def note_ledger_admit(self, key: int, delta: Any, fresh: bool) -> None:
        """The ledger ruled on ``delta``; verify the ruling independently.

        Called *outside* :meth:`~repro.state.epoch.EpochLedger.admit`
        (from the merge path), so a broken ``admit`` cannot silently
        skip its own audit.  Checks three things: a fresh delta was not
        already admitted (exactly-once), fresh admissions stay dense per
        helper, and a dense-sequence-extending delta is never dropped
        as a duplicate (lost update).
        """
        self.checks["ledger-exactly-once"] += 1
        identity = (delta.operator_id, delta.partition, delta.from_executor, delta.epoch)
        shadow_key = (key, delta.operator_id, delta.partition, delta.from_executor)
        last = self._ledger_last.get(shadow_key, -1)
        admitted = self._admitted.setdefault(key, set())
        if fresh:
            if identity in admitted:
                self.fail(
                    "ledger-exactly-once",
                    f"delta (op={delta.operator_id!r}, p{delta.partition}, "
                    f"helper {delta.from_executor}, epoch {delta.epoch}) "
                    "admitted twice — exactly-once merging is broken",
                    partition=delta.partition, helper=delta.from_executor,
                    epoch=delta.epoch,
                )
            if delta.epoch <= last:
                self.fail(
                    "ledger-exactly-once",
                    f"duplicate delta re-admitted: epoch {delta.epoch} from "
                    f"helper {delta.from_executor} on partition "
                    f"{delta.partition} was already at or below the admission "
                    f"frontier {last}",
                    partition=delta.partition, helper=delta.from_executor,
                    epoch=delta.epoch, frontier=last,
                )
            if last >= 0 and delta.epoch != last + 1:
                self.fail(
                    "ledger-exactly-once",
                    f"epoch skip admitted: {delta.epoch} after {last} from "
                    f"helper {delta.from_executor} on partition {delta.partition}",
                    partition=delta.partition, helper=delta.from_executor,
                    epoch=delta.epoch, frontier=last,
                )
            admitted.add(identity)
            self._ledger_last[shadow_key] = max(last, delta.epoch)
        elif delta.epoch > last:
            self.fail(
                "ledger-exactly-once",
                f"fresh delta dropped as a duplicate: epoch {delta.epoch} "
                f"from helper {delta.from_executor} on partition "
                f"{delta.partition} extends the admission frontier {last} "
                "but was rejected (lost update)",
                partition=delta.partition, helper=delta.from_executor,
                epoch=delta.epoch, frontier=last,
            )

    # -- faults: consistent-cut audit for async snapshots ---------------------
    def note_snapshot_round(
        self,
        round_id: int,
        participants: list,
        boundaries: dict,
        frontiers: dict,
        channel_state: dict,
    ) -> None:
        """A Chandy–Lamport round completed; audit the cut it froze.

        ``boundaries`` maps sender -> epoch-cut boundary at which its
        marker shipped; ``frontiers`` maps receiver -> the admission
        ledger frozen inside its capture (keys ``(operator, partition,
        sender)`` -> last admitted epoch); ``channel_state`` maps
        ``(receiver, sender)`` -> recorded in-flight ``(operator,
        partition, epoch)`` triples.  For every audited stream the
        recorded epochs must bridge the receiver's frozen frontier to
        the sender's marker boundary exactly — a record beyond the
        boundary is a post-marker leak, a gap is a lost pre-marker
        record.
        """
        self.checks["snapshot-consistency"] += 1
        for dst in participants:
            frontier = frontiers.get(dst)
            if frontier is None:
                continue
            for src in participants:
                if src == dst:
                    continue
                boundary = boundaries.get(src)
                if boundary is None:
                    # The channel closed before a marker arrived; the
                    # sender contributed nothing in-flight to audit.
                    continue
                streams: dict[tuple, set] = {}
                for op, partition, epoch in channel_state.get((dst, src), ()):
                    streams.setdefault((op, partition), set()).add(epoch)
                audited = set(streams)
                audited.update(
                    (op, partition)
                    for (op, partition, helper) in frontier
                    if helper == src
                )
                for op, partition in sorted(audited):
                    frozen = frontier.get((op, partition, src), -1)
                    if frozen > boundary:
                        self.fail(
                            "snapshot-consistency",
                            f"round {round_id}: executor {dst}'s capture "
                            f"admitted (op={op!r}, p{partition}) up to epoch "
                            f"{frozen}, past executor {src}'s marker boundary "
                            f"{boundary} — a post-marker record leaked into "
                            "the cut",
                            round=round_id, dst=dst, src=src,
                            partition=partition, frontier=frozen,
                            boundary=boundary,
                        )
                    recorded = {
                        e for e in streams.get((op, partition), ()) if e > frozen
                    }
                    beyond = {e for e in recorded if e > boundary}
                    if beyond:
                        self.fail(
                            "snapshot-consistency",
                            f"round {round_id}: channel state {src}->{dst} "
                            f"(op={op!r}, p{partition}) records epochs "
                            f"{sorted(beyond)} beyond the marker boundary "
                            f"{boundary} — post-marker records in the cut",
                            round=round_id, dst=dst, src=src,
                            partition=partition, boundary=boundary,
                        )
                    expected = set(range(frozen + 1, boundary + 1))
                    if recorded != expected:
                        missing = sorted(expected - recorded)
                        self.fail(
                            "snapshot-consistency",
                            f"round {round_id}: channel state {src}->{dst} "
                            f"(op={op!r}, p{partition}) is missing epochs "
                            f"{missing} between the frozen frontier {frozen} "
                            f"and the marker boundary {boundary} — a "
                            "pre-marker record was lost from the cut",
                            round=round_id, dst=dst, src=src,
                            partition=partition, frontier=frozen,
                            boundary=boundary,
                        )

    def note_aligned_round(
        self, round_id: int, captures: int, post_marker_merges: int
    ) -> None:
        """An aligned (partitioned-engine) snapshot round completed."""
        self.checks["snapshot-consistency"] += 1
        if post_marker_merges:
            self.fail(
                "snapshot-consistency",
                f"aligned round {round_id}: {post_marker_merges} post-marker "
                f"payloads merged into consumer state before capture "
                "(alignment spill bypassed — the cut is not consistent)",
                round=round_id, captures=captures,
                post_marker_merges=post_marker_merges,
            )

    # -- elastic: ownership exactness during live migration -------------------
    def note_migration_owner(self, scope: str, partition: int, owner: int) -> None:
        """Record the initial owner of ``partition`` (coordinator arm)."""
        self.checks["ownership-exactness"] += 1
        self._owners[(scope, partition)] = owner

    def note_range_copy(
        self, scope: str, partition: int, range_id: int, src: int, dst: int
    ) -> None:
        """One fluid sub-range copy ``src -> dst`` starts for ``partition``.

        The copier must be the partition's current owner (only the
        leader holds the primary state a sub-move transfers), and no
        sub-range may be copied twice within one migration — a re-copy
        would re-apply the range's deltas at the destination.
        """
        self.checks["ownership-exactness"] += 1
        key = (scope, partition)
        owner = self._owners.get(key, src)
        if src != owner:
            self.fail(
                "ownership-exactness",
                f"executor {src} copied sub-range {range_id} of partition "
                f"{partition} but executor {owner} owns it — a non-owner "
                "holds (and is moving) primary state",
                scope=scope, partition=partition, range_id=range_id,
                src=src, dst=dst, owner=owner,
            )
        copied = self._range_copies.setdefault(key, set())
        if range_id in copied:
            self.fail(
                "ownership-exactness",
                f"sub-range {range_id} of partition {partition} copied twice "
                f"({src} -> {dst}) — its deltas would apply twice at the "
                "destination",
                scope=scope, partition=partition, range_id=range_id,
                src=src, dst=dst,
            )
        copied.add(range_id)

    def note_ownership_handoff(
        self,
        scope: str,
        partition: int,
        src: int,
        dst: int,
        ranges_copied: int,
        ranges_total: int,
    ) -> None:
        """Ownership of ``partition`` flips ``src -> dst`` atomically.

        The handoff must come from the current owner (each key range
        owned by exactly one leader, before and after), and a fluid
        handoff must cover every sub-range exactly — a partial handoff
        would leave a key range with no (or two) owners.
        """
        self.checks["ownership-exactness"] += 1
        key = (scope, partition)
        owner = self._owners.get(key, src)
        if src != owner:
            self.fail(
                "ownership-exactness",
                f"executor {src} handed off partition {partition} but "
                f"executor {owner} owns it — two leaders claimed the same "
                "key range",
                scope=scope, partition=partition, src=src, dst=dst,
                owner=owner,
            )
        if ranges_copied != ranges_total:
            self.fail(
                "ownership-exactness",
                f"partition {partition} handed off with {ranges_copied} of "
                f"{ranges_total} sub-ranges copied — partial handoff leaves "
                "key ranges without exactly one owner",
                scope=scope, partition=partition, src=src, dst=dst,
                ranges_copied=ranges_copied, ranges_total=ranges_total,
            )
        copied = self._range_copies.pop(key, set())
        if ranges_total and len(copied) != ranges_total:
            self.fail(
                "ownership-exactness",
                f"partition {partition} handed off but only sub-ranges "
                f"{sorted(copied)} of {ranges_total} were ever copied",
                scope=scope, partition=partition, src=src, dst=dst,
                ranges_total=ranges_total,
            )
        self._owners[key] = dst

    def check_delta_owner(self, scope: str, partition: int, executor: int) -> None:
        """``executor`` is about to merge a delta for ``partition``."""
        self.checks["ownership-exactness"] += 1
        owner = self._owners.get((scope, partition))
        if owner is not None and executor != owner:
            self.fail(
                "ownership-exactness",
                f"executor {executor} merged a delta for partition "
                f"{partition} but executor {owner} owns it — state is "
                "splitting across two leaders",
                scope=scope, partition=partition, executor=executor,
                owner=owner,
            )

    def note_transfer_apply(self, scope: str, token: tuple) -> None:
        """One forwarded (relayed) delta applies at the new leader."""
        self.checks["ownership-exactness"] += 1
        key = (scope, token)
        if key in self._transfer_tokens:
            self.fail(
                "ownership-exactness",
                f"forwarded delta {token} applied twice at the new leader — "
                "exactly-once forwarding is broken",
                scope=scope, token=str(token),
            )
        self._transfer_tokens.add(key)

    # -- overload: admission conservation + silent-drop audit -----------------
    def note_overload_admission(
        self,
        source: str,
        offered: int,
        admitted: int,
        shed: int,
        batch_offered: int,
        batch_admitted: int,
        batch_shed: int,
        policy_active: bool,
        queue_depth: int,
    ) -> None:
        """One ingress batch was admitted (possibly shedding records).

        ``offered`` / ``admitted`` / ``shed`` are the coordinator's
        cumulative counters for ``source``; the ``batch_*`` values are
        this admission's deltas.  The sanitizer keeps its own cumulative
        shadow from the deltas, so a coordinator that mis-folds a batch
        into its books is caught even though both views come from the
        same call site.
        """
        self.checks["backpressure-conservation"] += 1
        if batch_offered != batch_admitted + batch_shed:
            self.fail(
                "backpressure-conservation",
                f"{source}: batch of {batch_offered} records split into "
                f"{batch_admitted} admitted + {batch_shed} shed — records "
                "created or destroyed at admission",
                source=source, batch_offered=batch_offered,
                batch_admitted=batch_admitted, batch_shed=batch_shed,
            )
        if batch_shed > 0 and not policy_active:
            self.fail(
                "backpressure-conservation",
                f"{source}: {batch_shed} records shed with no shedding "
                "policy active — a drop that nothing decided to make",
                source=source, batch_shed=batch_shed,
            )
        if queue_depth < 0:
            self.fail(
                "backpressure-conservation",
                f"{source}: ingress backlog estimate went negative "
                f"({queue_depth}) — more records processed than offered",
                source=source, queue_depth=queue_depth,
            )
        prev_offered, prev_admitted, prev_shed = self._overload_accounts.get(
            source, (0, 0, 0)
        )
        shadow = (
            prev_offered + batch_offered,
            prev_admitted + batch_admitted,
            prev_shed + batch_shed,
        )
        if offered < prev_offered:
            self.fail(
                "backpressure-conservation",
                f"{source}: cumulative offered count regressed from "
                f"{prev_offered} to {offered}",
                source=source, previous=prev_offered, offered=offered,
            )
        if (offered, admitted, shed) != shadow:
            self.fail(
                "backpressure-conservation",
                f"{source}: coordinator accounts (offered={offered}, "
                f"admitted={admitted}, shed={shed}) drifted from the "
                f"shadow ledger (offered={shadow[0]}, admitted={shadow[1]}, "
                f"shed={shadow[2]})",
                source=source, offered=offered, admitted=admitted,
                shed=shed, shadow_offered=shadow[0],
                shadow_admitted=shadow[1], shadow_shed=shadow[2],
            )
        if offered != admitted + shed:
            self.fail(
                "backpressure-conservation",
                f"{source}: cumulative offered {offered} != admitted "
                f"{admitted} + shed {shed}",
                source=source, offered=offered, admitted=admitted,
                shed=shed,
            )
        self._overload_accounts[source] = shadow

    def check_no_silent_drop(
        self, source: str, offered: int, admitted: int, shed: int, processed: int
    ) -> None:
        """End-of-run audit: ``source`` processed every admitted record."""
        self.checks["no-silent-drop"] += 1
        if offered != admitted + shed:
            self.fail(
                "no-silent-drop",
                f"{source}: offered {offered} records but only "
                f"{admitted} admitted + {shed} shed are accounted for",
                source=source, offered=offered, admitted=admitted,
                shed=shed,
            )
        if processed != admitted:
            self.fail(
                "no-silent-drop",
                f"{source}: admitted {admitted} records but the pipeline "
                f"processed {processed} — records dropped without being "
                "logged as shed",
                source=source, admitted=admitted, processed=processed,
            )

    # -- core: watermark-safe window triggering ------------------------------
    def check_window_fire(
        self, executor_id: int, window_id: int, window_end: float, frontier: float
    ) -> None:
        """Executor ``executor_id`` is about to fire ``window_id``."""
        self.checks["window-fire"] += 1
        if window_end > frontier:
            self.fail(
                "window-fire",
                f"executor {executor_id} fired window {window_id} ending at "
                f"{window_end!r} while the clock frontier is only "
                f"{frontier!r} — property P1 violated (a straggler could "
                "still contribute)",
                executor=executor_id, window=window_id,
                window_end=window_end, frontier=frontier,
            )
