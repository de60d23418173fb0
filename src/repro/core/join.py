"""Windowed hash-join probe logic (paper Sec. 5.2, 'Windowed Join').

Slash eagerly *builds* per-window hash state (the append partials of
:class:`~repro.core.pipeline.JoinBuildPipeline`) and *probes* lazily when
a window terminates: for every key, it outputs the per-key pairwise
combinations of the stored left and right records.  Because the state
backend concatenates all partial values with the same key before the
trigger fires, the probe sees exactly the records a sequential execution
would have collected (P2).

Session joins (NB11) additionally split a key's merged timeline into
gap-separated sessions at trigger time and only emit the sessions that
are *closed* — those whose last record is more than one gap below the
vector-clock frontier.  Splitting a timeline costs a sort, and most keys
cannot emit on most triggers, so :class:`SessionTrigger` — the one
session-trigger loop, shared by the Slash executor and the UpPar consumer
— probes a key only when its payload changed or the frontier reached the
key's *due* time.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

from repro.core.pipeline import LEFT, RIGHT
from repro.core.windows import SessionWindows

JoinedPair = tuple[tuple, tuple]
SessionEntry = tuple[float, int, tuple]

_INF = float("inf")


def probe_window(payload: Sequence[tuple[int, tuple]]) -> list[JoinedPair]:
    """Emit all left x right combinations of one (window, key) payload.

    ``payload`` entries are ``(side, row_tuple)``.  Output order is
    normalised (sorted) so distributed and sequential runs compare equal.
    """
    lefts = [row for side, row in payload if side == LEFT]
    rights = [row for side, row in payload if side == RIGHT]
    return sorted((l, r) for l in lefts for r in rights)


def probe_sessions(
    window: SessionWindows,
    payload: Sequence[SessionEntry],
    frontier: float,
) -> tuple[list[JoinedPair], list[SessionEntry], float]:
    """Split a key's merged timeline into sessions and emit closed ones.

    ``payload`` entries are ``(ts, side, row_tuple)``.  Returns
    ``(emitted_pairs, remaining_payload, due)``: sessions whose end (last
    ts + gap) is ``<= frontier`` are probed and dropped, the rest are kept
    for future records.  ``due`` is the smallest end among the kept
    sessions that hold *both* sides (``inf`` if none): until the frontier
    reaches it, an unchanged ``remaining`` cannot emit.
    """
    emitted: list[JoinedPair] = []
    remaining: list[SessionEntry] = []
    due = _INF
    if not payload:
        return emitted, remaining, due
    timestamps = [entry[0] for entry in payload]
    for _start, end, member_indices in window.split_sessions(timestamps):
        members = [payload[i] for i in member_indices]
        if end <= frontier:
            emitted.extend(
                probe_window([(side, row) for _ts, side, row in members])
            )
        else:
            remaining.extend(members)
            if end < due and len({side for _ts, side, _row in members}) == 2:
                due = end
    return sorted(emitted), remaining, due


class SessionTrigger:
    """The session-join trigger of one operator instance.

    :meth:`fire` walks the operator's keys in the caller's order and
    probes only those that can emit.  Per key it remembers
    ``(payload, len(payload), due)`` from the last probe and skips the key
    while the payload is the *same object* at the *same length* and
    ``frontier < due`` (or ``due`` is ``inf``: nothing left that could).

    Why the skip is exact.  Append logs only grow — a merge builds a new
    list, an ``update`` extends in place — so an unchanged (identity,
    length) means unchanged content, hence an unchanged session split
    (holding the reference keeps the ``id`` from being recycled).  The
    remembered payload either emitted nothing at its last probe, or is the
    ``remaining`` of one that did; both ways every session of it closed at
    that probe's frontier is one-sided.  So the next session able to emit
    is a two-sided one that was still open, and the earliest of those
    closes at ``due``.  A frontier that steps *back* closes a subset of
    the sessions already seen closed, so it is covered too.

    A key whose closed sessions are all one-sided is not rewritten (the
    caller only hears about keys that emit), so those sessions stay
    resident until the key does emit — deliberately unchanged: evicting
    them would move the engines' state-size estimates and with them
    simulated time.
    """

    def __init__(self, window: SessionWindows):
        self.window = window
        self._memo: dict[Hashable, tuple[list, int, float]] = {}

    def fire(
        self, items: Iterable[tuple[Hashable, list]], frontier: float
    ) -> Iterator[tuple[Hashable, list[JoinedPair], list[SessionEntry]]]:
        """Yield ``(key, emitted, remaining)`` for every key that emits.

        ``items`` must be a snapshot: before resuming the generator the
        caller stores ``remaining`` — that very list — under ``key``, or
        drops the key when it is empty.
        """
        if frontier == -_INF:
            return
        window = self.window
        memo = self._memo
        for key, payload in items:
            seen = memo.get(key)
            if seen is not None and seen[0] is payload and seen[1] == len(payload):
                due = seen[2]
                # ``inf`` means no two-sided session is left at all, which
                # not even the final ``frontier = inf`` can make emit.
                if frontier < due or due == _INF:
                    continue
            emitted, remaining, due = probe_sessions(window, payload, frontier)
            if not emitted:
                memo[key] = (payload, len(payload), due)
                continue
            if remaining:
                memo[key] = (remaining, len(remaining), due)
            else:
                memo.pop(key, None)
            yield key, emitted, remaining
