"""Log-structured storage with a hybrid log (paper Sec. 7.2.1).

The store follows FASTER's in-memory hybrid log, extended the way the
paper extends it for distributed execution:

* the log is an append-only sequence of entries with a **read-only
  boundary**: entries at or beyond the boundary (the *mutable tail*) are
  updated in place; an RMW that hits an entry below the boundary copies
  the merged value to the tail and invalidates the old entry;
* the region between the boundary and the tail is, by construction,
  exactly the set of key-value pairs modified since the boundary was last
  advanced — so a helper finds its **epoch delta** without any pointer
  chasing (the temporal-locality argument of the paper's rationale);
* :meth:`LogStructuredStore.ship_delta` returns that region, as the
  log's own columns, and then drops it: after a ship, RMWs restart from
  the CRDT's zero, which the paper notes is safe because leaders merge
  the shipped partials;
* the log **adaptively resizes**: when invalid entries dominate, the live
  tail is compacted, modelling the paper's adaptive circular buffer.

Like the paper's SSB, the log holds fixed-size entries addressed by a hash
index, so it is stored as a **struct of arrays**, one row per log
position:

* ``keys`` — a Python list of state keys; the :class:`HashIndex` maps
  each live key to its row;
* ``window`` — int64, the ``window_id`` of a ``(window_id, group_key)``
  state key, :data:`NO_WINDOW` for any other key;
* ``valid`` — bool, cleared when a row is superseded or removed;
* ``payload`` — the column the CRDT declares
  (:class:`~repro.state.crdt.PayloadColumn`: int64 counts, float64
  sums / minima / maxima, merged element-wise), or, for a CRDT that
  declares none (avg's ``(sum, count)`` tuples, append-log tuples), an
  object column of Python payloads merged pair by pair with
  ``crdt.merge``.

A batch absorb is one index probe for the whole batch, one appended
slice of tail rows, in batch order, for its misses and read-only
copy-on-writes, and one vectorised merge of every partial in place; a
window read is a mask over ``window`` (address order, i.e. what a full
scan yields);
a ship is a slice of the tail's columns; compaction compresses the
columns and rebuilds the index in one call.  Everything the store hands
out is a plain Python ``int`` / ``float`` / ``tuple``, except a shipped
delta, which keeps the log's window and payload columns.

``size_bytes`` is O(1): a running payload-byte count is adjusted at every
site that changes a key's live payload.  The property tests hold it and
the window reads to their brute-force definitions over ``scan()``.
"""

from __future__ import annotations

from contextlib import suppress
from itertools import compress
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.common.errors import StateError
from repro.state.crdt import Crdt
from repro.state.hash_index import HashIndex

# Fixed per-entry overhead (header + key) in serialized form.
ENTRY_HEADER_BYTES = 8
KEY_BYTES = 8

#: ``window`` of a state key that is not ``(window_id, group_key)`` with
#: an int64 window id (session state is keyed by bare group keys).
NO_WINDOW = int(np.iinfo(np.int64).min)
_MAX_WINDOW = int(np.iinfo(np.int64).max)

_MIN_CAPACITY = 16


def _window_of(key: Hashable) -> int:
    """The window id of one state key (``NO_WINDOW`` outside any window)."""
    if type(key) is tuple and key and isinstance(key[0], (int, np.integer)):
        window = int(key[0])
        if NO_WINDOW < window <= _MAX_WINDOW:
            return window
    return NO_WINDOW


def window_column(keys: Sequence[Hashable]) -> np.ndarray:
    """The int64 window id of every state key in ``keys``.

    Runs in C loops when every key is a ``(int, ·)`` tuple — the shape of
    all windowed state — and falls back to a per-key check otherwise.
    """
    if set(map(type, keys)) == {tuple}:
        with suppress(IndexError, OverflowError):
            firsts = np.array(list(map(itemgetter(0), keys)))
            if firsts.dtype == np.int64:
                return firsts
    return np.fromiter(map(_window_of, keys), dtype=np.int64, count=len(keys))


def distinct_windows(windows: np.ndarray) -> list[int]:
    """The distinct window ids of a window column, ascending, without
    :data:`NO_WINDOW`."""
    distinct = np.unique(windows).tolist()
    if distinct and distinct[0] == NO_WINDOW:  # the int64 minimum sorts first
        del distinct[0]
    return distinct


def _moved(column: np.ndarray, rows: slice | np.ndarray, capacity: int) -> np.ndarray:
    """``column[rows]`` at the head of a new column of ``capacity`` rows."""
    taken = column[rows]
    moved = np.empty(capacity, dtype=column.dtype)
    moved[:len(taken)] = taken
    return moved


class LogStructuredStore:
    """A hash-indexed hybrid log holding one partition('s fragment)."""

    def __init__(self, crdt: Crdt, name: str = "", compact_threshold: float = 0.5):
        if not 0.0 < compact_threshold <= 1.0:
            raise StateError(f"compact_threshold must be in (0, 1], got {compact_threshold}")
        self.crdt = crdt
        self.name = name
        self.compact_threshold = compact_threshold
        self.index = HashIndex(name=f"{name}.idx")
        self.compactions = 0
        column = crdt.column
        if column is None:
            dtype: Any = object
            self._merge: Callable = np.frompyfunc(crdt.merge, 2, 1)
        else:
            dtype = column.dtype
            self._merge = column.merge
        # The CRDT zero as a one-row column, broadcast into a batch's misses.
        self._zero = np.empty(1, dtype=dtype)
        self._zero[0] = crdt.zero()
        self._keys: list = []
        self._window = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._valid = np.empty(_MIN_CAPACITY, dtype=bool)
        self._payload = np.empty(_MIN_CAPACITY, dtype=dtype)
        self._readonly_boundary = 0
        self._invalid = 0
        # Sum of crdt.value_bytes over the live payloads.  A fixed-size
        # CRDT changes it only when a key enters or leaves, so batch paths
        # price payloads one by one only when sizes actually vary.
        self._payload_bytes = 0
        self._varsized = not crdt.fixed_size
        self._exact_zero = crdt.exact_zero

    # -- sizes ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.index)

    @property
    def size_bytes(self) -> int:
        """Approximate resident bytes of live entries plus the index.

        O(1): every live entry is the indexed version of its key, so the
        entry count is the index size and the payload bytes are the
        running count.
        """
        return (
            len(self.index) * (ENTRY_HEADER_BYTES + KEY_BYTES)
            + self._payload_bytes
            + self.index.size_bytes
        )

    # -- point operations -------------------------------------------------------
    def update(self, key: Hashable, value: Any) -> None:
        """RMW: fold one stream value into the payload stored under ``key``."""
        self._rmw(key, value, self.crdt.update)

    def absorb(self, key: Hashable, partial: Any) -> None:
        """Merge a pre-aggregated partial payload into ``key``.

        Used for single pairs; batches go through :meth:`absorb_columns`.
        """
        self._rmw(key, partial, self.crdt.merge)

    def _rmw(self, key: Hashable, value: Any, combine: Callable[[Any, Any], Any]) -> None:
        value_bytes = self.crdt.value_bytes
        address = self.index.get(key)
        if address is None:
            payload = combine(self.crdt.zero(), value)
            self._append(key, payload, _window_of(key))
            self._payload_bytes += value_bytes(payload)
            return
        current = self._payload.item(address)
        merged = combine(current, value)
        self._payload_bytes += value_bytes(merged) - value_bytes(current)
        self._overwrite(address, key, merged)

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the live payload under ``key`` (None if absent)."""
        address = self.index.get(key)
        if address is None:
            return None
        return self._payload.item(address)

    def remove(self, key: Hashable) -> Any:
        """Invalidate ``key`` and return its payload (window eviction)."""
        address = self.index.get(key)
        if address is None:
            raise StateError(f"store {self.name!r}: remove of absent key {key!r}")
        payload = self._payload.item(address)
        self._valid[address] = False
        self._invalid += 1
        self._payload_bytes -= self.crdt.value_bytes(payload)
        self.index.remove(key)
        self._maybe_compact()
        return payload

    def replace(self, key: Hashable, payload: Any) -> None:
        """Overwrite the payload under ``key`` (session-window rewrites)."""
        value_bytes = self.crdt.value_bytes
        self._payload_bytes += value_bytes(payload)
        address = self.index.get(key)
        if address is None:
            self._append(key, payload, _window_of(key))
            return
        self._payload_bytes -= value_bytes(self._payload.item(address))
        self._overwrite(address, key, payload)

    def _overwrite(self, address: int, key: Hashable, payload: Any) -> None:
        if address >= self._readonly_boundary:
            self._payload[address] = payload
            return
        # Read-only region: copy-on-write to the mutable tail.
        self._valid[address] = False
        self._invalid += 1
        self._append(key, payload, int(self._window[address]))

    def _append(self, key: Hashable, payload: Any, window: int) -> None:
        address = self._reserve(1)
        self._window[address] = window
        self._valid[address] = True
        self._payload[address] = payload
        self._keys.append(key)
        self.index.put(key, address)

    # -- batch absorb ------------------------------------------------------------
    def absorb_many(self, pairs: Iterable[tuple[Hashable, Any]]) -> None:
        """Merge a batch of ``(key, partial)`` pairs.

        Equivalent to calling :meth:`absorb` per pair in order: the pairs
        are unzipped into columns for :meth:`absorb_runs`.
        """
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        if pairs:
            keys, partials = zip(*pairs)
            self.absorb_runs(keys, None, partials)

    def absorb_runs(
        self,
        keys: Sequence[Hashable],
        windows: Optional[np.ndarray],
        partials: Sequence[Any],
    ) -> None:
        """:meth:`absorb_columns` for columns in which a key may repeat.

        Equivalent to :meth:`absorb` per row in order.  The columns are
        absorbed in runs of distinct keys, each cut before the first key
        its run already holds (a split append-log partial repeats its key).
        Only an oversized split repeats a key, so the common case is one
        C-level distinctness check and one call.
        """
        if len(set(keys)) == len(keys):
            self.absorb_columns(keys, windows, partials)
            return
        cuts = []
        run: set = set()
        for position, key in enumerate(keys):
            if key in run:
                cuts.append(position)
                run = set()
            run.add(key)
        for start, end in zip([0, *cuts], [*cuts, len(keys)]):
            self.absorb_columns(
                keys[start:end],
                None if windows is None else windows[start:end],
                partials[start:end],
            )

    def absorb_columns(
        self,
        keys: Sequence[Hashable],
        windows: Optional[np.ndarray],
        partials: Sequence[Any],
    ) -> None:
        """Merge one partial per *distinct* key, given as columns.

        Equivalent to :meth:`absorb` per key in order.  ``windows`` holds
        the keys' window ids (derived from the keys when None);
        ``partials`` is a column of the payload dtype or any sequence of
        payloads.  One index probe covers the batch.  Misses and
        read-only rows first get tail rows, appended as one slice in batch
        order and seeded with the zero or, copy-on-write, the read-only
        payload; then one vectorised merge folds every partial in place.
        Where the CRDT's zero is exact (``Crdt.exact_zero``: the append
        log's ``() + p`` is ``p``), a miss stores its partial itself and
        only the present rows merge.
        """
        count = len(keys)
        if not count:
            return
        dtype = self._payload.dtype
        if dtype != object:
            partials = np.asarray(partials, dtype=dtype)
        elif not isinstance(partials, np.ndarray):
            partials = np.fromiter(partials, dtype=object, count=count)
        live = len(self.index)
        address = self.index.probe(keys)
        present = address >= 0 if self._varsized or self._exact_zero else None
        fresh = address < self._readonly_boundary
        appended = np.count_nonzero(fresh)
        if appended == count:
            start = self._append_rows(keys, windows, address)
            rows: slice | np.ndarray = slice(start, start + count)
        else:
            rows = address
            if appended:
                start = self._append_rows(
                    list(compress(keys, fresh.tolist())),
                    None if windows is None else windows[fresh],
                    address[fresh],
                )
                rows[fresh] = np.arange(start, start + appended)
        payload = self._payload
        current = payload[rows]
        if self._exact_zero:
            merged = partials
            if present.any():
                merged = partials.copy()
                merged[present] = self._merge(current[present], partials[present])
        else:
            merged = self._merge(current, partials)
        if self._varsized:
            # A miss's zero seed was never a live payload.
            self._payload_bytes += self._payload_size(merged) - self._payload_size(
                current[present]
            )
        else:
            self._payload_bytes += (len(self.index) - live) * self.crdt.payload_bytes
        payload[rows] = merged

    def _append_rows(
        self, keys: Sequence[Hashable], windows: Optional[np.ndarray], sources: np.ndarray
    ) -> int:
        """Append one row per key and return the first one's address.

        A row is seeded with the payload at its ``sources`` address when
        that is a read-only row (which is then superseded: copy-on-write),
        else with the CRDT zero.
        """
        start = self._reserve(len(keys))
        end = start + len(keys)
        self._window[start:end] = window_column(keys) if windows is None else windows
        self._valid[start:end] = True
        if self._readonly_boundary:
            copied = sources >= 0
            self._payload[start:end] = np.where(copied, self._payload[sources], self._zero)
            superseded = sources[copied]
            self._valid[superseded] = False
            self._invalid += len(superseded)
        else:  # nothing is read-only: every source is a miss
            self._payload[start:end] = self._zero
        self._keys.extend(keys)
        self.index.put_many(keys, start)
        return start

    # -- scans --------------------------------------------------------------------
    def _live(self, start: int = 0) -> np.ndarray:
        """Addresses of the valid rows at or beyond ``start``, ascending."""
        return np.flatnonzero(self._valid[start:len(self._keys)]) + start

    def _pairs(self, rows: np.ndarray) -> list[tuple[Hashable, Any]]:
        return list(zip(*self._columns(rows)))

    def _columns(self, rows: np.ndarray) -> tuple[list, list]:
        return self._keys_at(rows), self._payload[rows].tolist()

    def _keys_at(self, rows: np.ndarray) -> list:
        return list(map(self._keys.__getitem__, rows.tolist()))

    def scan(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate live ``(key, payload)`` pairs in log order.

        Log order is what a range scan over the LSS would produce; the
        paper's state backend must support such scans for window
        post-processing (Sec. 7.1.1).
        """
        return iter(self._pairs(self._live()))

    def scan_columns(self) -> tuple[list, list]:
        """What :meth:`scan` yields, as ``(keys, payloads)`` columns."""
        return self._columns(self._live())

    def _window_rows(self, window_id: int) -> np.ndarray:
        window = _window_of((window_id,))
        rows = len(self._keys)
        if window == NO_WINDOW:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self._valid[:rows] & (self._window[:rows] == window))

    def window_items(self, window_id: int) -> list[tuple[Hashable, Any]]:
        """Live ``(key, payload)`` pairs keyed ``(window_id, ·)``, in log order.

        Window ids are integers, as every window assigner produces them; a
        key whose first component is not an integer lies in no window.
        """
        return self._pairs(self._window_rows(window_id))

    def pop_window_columns(self, window_id: int) -> tuple[list, list]:
        """Remove and return what :meth:`window_items` reads (a window fire),
        as ``(keys, payloads)`` columns."""
        rows = self._window_rows(window_id)
        if not len(rows):
            return [], []
        keys, payloads = self._columns(rows)
        self._valid[rows] = False
        self._invalid += len(rows)
        self.index.remove_many(keys)
        self._payload_bytes -= self._payload_size(payloads)
        self._maybe_compact()
        return keys, payloads

    # -- epoch delta ------------------------------------------------------------------
    def delta_pairs(self) -> list[tuple[Hashable, Any]]:
        """Live pairs modified since the read-only boundary (no side effects)."""
        return self._pairs(self._live(self._readonly_boundary))

    def _payload_size(self, payloads: Sequence[Any]) -> int:
        """Sum of ``crdt.value_bytes`` over ``payloads`` (a list or column)."""
        if not self._varsized:
            return len(payloads) * self.crdt.payload_bytes
        if isinstance(payloads, np.ndarray):
            payloads = payloads.tolist()
        return self.crdt.column_bytes(payloads)

    def mark_readonly(self) -> int:
        """Advance the boundary to the tail (step 2 of the epoch protocol).

        Freezes the current delta against concurrent CPU writes: further
        RMWs copy-on-write to the tail.  Returns the frozen boundary.
        """
        frozen = self._readonly_boundary
        self._readonly_boundary = len(self._keys)
        return frozen

    def ship_delta(self) -> tuple[list, np.ndarray, np.ndarray, int]:
        """Extract and invalidate the epoch delta (steps 2-4 for helpers).

        Returns ``(keys, windows, payloads, nbytes)``: the live rows past
        the read-only boundary in log order, as the log's own columns
        (state keys, int64 window ids, the payload column), and their
        serialized size.  After shipping, the shipped keys are dropped
        entirely — the next RMW restarts from the CRDT zero, which is safe
        because the leader has merged the shipped partials (paper, Sec.
        7.2.2 'Properties').
        """
        boundary = self._readonly_boundary
        end = len(self._keys)
        if self._invalid:
            rows = self._live(boundary)
            keys = self._keys_at(rows)
            windows = self._window[rows]
            payloads = self._payload[rows]
        else:
            keys = self._keys[boundary:]
            windows = self._window[boundary:end].copy()
            payloads = self._payload[boundary:end].copy()
        payload_bytes = self._payload_size(payloads)
        # Every valid tail row is the latest version of its key.
        self.index.remove_many(keys)
        self._invalid -= end - boundary - len(keys)
        self._payload_bytes -= payload_bytes
        # The whole tail is dead after a ship; truncating it (instead of
        # invalidating in place) keeps the log from accreting garbage and
        # triggering a full compaction every few epochs.
        self._truncate(boundary)
        self._maybe_compact()
        nbytes = len(keys) * (ENTRY_HEADER_BYTES + KEY_BYTES) + payload_bytes
        return keys, windows, payloads, nbytes

    # -- maintenance -----------------------------------------------------------------------
    def _reserve(self, extra: int) -> int:
        """Make room for ``extra`` appended rows; return the first one's address."""
        rows = len(self._keys)
        if rows + extra > len(self._valid):
            self._resize(max(2 * (rows + extra), _MIN_CAPACITY))
        return rows

    def _resize(self, capacity: int, rows: slice | np.ndarray | None = None) -> None:
        """Reallocate the columns at ``capacity``, keeping ``rows`` (default:
        all of them) as the new head."""
        if rows is None:
            rows = slice(0, len(self._keys))
        self._window = _moved(self._window, rows, capacity)
        self._valid = _moved(self._valid, rows, capacity)
        self._payload = _moved(self._payload, rows, capacity)

    def _truncate(self, rows: int) -> None:
        """Drop every row from ``rows`` on.

        Capacity is kept: a drained fragment refills to about its last
        size within the next epoch.  Compaction is what shrinks it.
        """
        if self._payload.dtype == object:
            self._payload[rows:len(self._keys)] = None  # release the payloads
        del self._keys[rows:]

    def _maybe_compact(self) -> None:
        rows = len(self._keys)
        if not rows:
            return
        if self._invalid / rows < self.compact_threshold:
            return
        live = self._live()
        self._readonly_boundary = int(np.searchsorted(live, self._readonly_boundary))
        self._resize(max(2 * len(live), _MIN_CAPACITY), live)
        self._keys = self._keys_at(live)
        self._invalid = 0
        self.index.rebuild(self._keys)
        self.compactions += 1
