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
vector-clock frontier.  Most keys cannot emit on most triggers, so a
trigger first decides *which* keys can, in one columnar pass over every
candidate payload (:func:`two_sided` for fixed windows,
:func:`classify_sessions` for sessions), and runs the per-key Python probe
only on those.  :class:`SessionTrigger` — the one session-trigger loop,
shared by the Slash executor and the UpPar consumer — also skips a key
whose payload is unchanged until the frontier reaches the key's *due*
time.  :func:`probe_window` and :func:`probe_sessions` stay the exact
definitions: the reference engine calls them on every key.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import is_, itemgetter
from typing import Hashable, Iterator, Sequence

import numpy as np

from repro.core.pipeline import LEFT, RIGHT
from repro.core.windows import SessionWindows

JoinedPair = tuple[tuple, tuple]
SessionEntry = tuple[float, int, tuple]

_INF = float("inf")
#: The memo entry of a key never looked at: matches no payload.
_UNSEEN = (None, -_INF)


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
) -> tuple[list[JoinedPair], tuple[SessionEntry, ...], float]:
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
        return emitted, (), due
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
    return sorted(emitted), tuple(remaining), due


def _lengths(payloads: Sequence[Sequence]) -> np.ndarray:
    return np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads))


def two_sided(payloads: Sequence[Sequence[tuple[int, tuple]]]) -> np.ndarray:
    """``bool(probe_window(p))`` for every window payload ``p``, in one pass.

    A payload emits iff it holds a left and a right entry.  Both sides are
    counted per payload over one flat side column, by prefix sums, so an
    empty payload is one-sided like any other.
    """
    lengths = _lengths(payloads)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total = int(ends[-1]) if len(ends) else 0
    sides = np.fromiter(
        map(itemgetter(0), chain.from_iterable(payloads)), dtype=np.int64, count=total
    )

    def holds(side: int) -> np.ndarray:
        seen = np.concatenate(([0], np.cumsum(sides == side)))
        return seen[ends] > seen[starts]

    return holds(LEFT) & holds(RIGHT)


def classify_sessions(
    window: SessionWindows,
    payloads: Sequence[Sequence[SessionEntry]],
    frontier: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``(emits, due)`` of :func:`probe_sessions` for every payload, in one pass.

    ``emits[i]`` is whether ``probe_sessions(window, payloads[i],
    frontier)`` emits pairs — whether the payload has a closed session
    holding both sides — and ``due[i]`` is the ``due`` it returns.

    Every payload's timeline is split at once: a stable sort by (payload,
    ts) and a session break wherever the payload changes or ``ts`` steps
    more than ``gap_ms`` past the previous one, the strict ``>`` of
    :meth:`SessionWindows.split_sessions`.  A session ends at its last ts
    plus the gap.  It is exact: Python floats are float64 too (and integer
    timestamps convert exactly below 2**53), so every difference, end and
    frontier comparison is the one the per-key split makes; both sorts are
    stable, so the order differs at most among equal timestamps, which
    never straddle a break.
    """
    count = len(payloads)
    emits = np.zeros(count, dtype=bool)
    due = np.full(count, _INF)
    lengths = _lengths(payloads)
    total = int(lengths.sum())
    if not total:
        return emits, due
    entries = list(chain.from_iterable(payloads))
    ts = np.fromiter(map(itemgetter(0), entries), dtype=np.float64, count=total)
    sides = np.fromiter(map(itemgetter(1), entries), dtype=np.int64, count=total)
    owner = np.repeat(np.arange(count), lengths)
    order = np.lexsort((ts, owner))
    ts, sides, owner = ts[order], sides[order], owner[order]
    gap = window.gap_ms
    breaks = np.empty(total, dtype=bool)
    breaks[0] = True
    np.logical_or(owner[1:] != owner[:-1], ts[1:] - ts[:-1] > gap, out=breaks[1:])
    starts = np.flatnonzero(breaks)
    end = ts[np.append(starts[1:], total) - 1] + gap
    both = np.logical_or.reduceat(sides == LEFT, starts) & np.logical_or.reduceat(
        sides == RIGHT, starts
    )
    session_owner = owner[starts]
    closed = end <= frontier
    emits[session_owner[closed & both]] = True
    # A payload's sessions are in ts order, so their ends ascend: the first
    # open two-sided session of each payload has its smallest end.
    pending = both & ~closed
    session_owner, end = session_owner[pending], end[pending]
    first = np.ones(len(session_owner), dtype=bool)
    first[1:] = session_owner[1:] != session_owner[:-1]
    due[session_owner[first]] = end[first]
    return emits, due


class SessionTrigger:
    """The session-join trigger of one operator instance.

    :meth:`fire` walks the operator's keys in the caller's order and
    probes only those that can emit.  Per key it remembers ``(payload,
    due)`` from the last time it was looked at, and skips the key while
    the payload is the *same object* and ``frontier < due`` (or ``due`` is
    ``inf``: nothing left that could).  The keys left are classified in
    one pass (:func:`classify_sessions`), and :func:`probe_sessions` runs
    only on those that emit.

    Why the skip is exact.  Append-log payloads are immutable tuples — a
    merge or an ``update`` builds a new one — so an unchanged identity
    means unchanged content, hence an unchanged session split (holding
    the reference keeps the ``id`` from being recycled).  The
    remembered payload either emitted nothing when last looked at, or is
    the ``remaining`` of a probe that did; both ways every session of it
    closed at that frontier is one-sided.  So the next session able to
    emit is a two-sided one that was still open, and the earliest of those
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
        self._memo: dict[Hashable, tuple[tuple, float]] = {}

    def fire(
        self, keys: Sequence[Hashable], payloads: Sequence[tuple], frontier: float
    ) -> Iterator[tuple[Hashable, list[JoinedPair], tuple[SessionEntry, ...]]]:
        """Yield ``(key, emitted, remaining)`` for every key that emits.

        ``keys`` and their ``payloads`` are two columns and must be a
        snapshot: before resuming the generator the caller stores
        ``remaining`` — that very tuple — under ``key``, or drops the key
        when it is empty.
        """
        if frontier == -_INF:
            return
        window = self.window
        memo = self._memo
        count = len(keys)
        seen = list(map(memo.get, keys, repeat(_UNSEEN)))
        seen_due = np.fromiter(map(itemgetter(1), seen), dtype=np.float64, count=count)
        # ``inf`` means no two-sided session is left at all, which not even
        # the final ``frontier = inf`` can make emit.
        settled = np.fromiter(
            map(is_, map(itemgetter(0), seen), payloads), dtype=bool, count=count
        ) & ((frontier < seen_due) | (seen_due == _INF))
        probed = np.flatnonzero(~settled)
        if not len(probed):
            return
        probed_keys = list(map(keys.__getitem__, probed.tolist()))
        probed_payloads = list(map(payloads.__getitem__, probed.tolist()))
        emits, due = classify_sessions(window, probed_payloads, frontier)
        quiet = np.flatnonzero(~emits).tolist()
        memo.update(zip(
            map(probed_keys.__getitem__, quiet),
            zip(map(probed_payloads.__getitem__, quiet), due[quiet].tolist()),
        ))
        for position in np.flatnonzero(emits).tolist():
            key = probed_keys[position]
            emitted, remaining, key_due = probe_sessions(
                window, probed_payloads[position], frontier
            )
            if remaining:
                memo[key] = (remaining, key_due)
            else:
                memo.pop(key, None)
            yield key, emitted, remaining
