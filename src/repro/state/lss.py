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
* :meth:`LogStructuredStore.ship_delta` returns that region and then
  invalidates it and advances the boundary: after a ship, RMWs restart
  from the CRDT's zero, which the paper notes is safe because leaders
  merge the shipped partials;
* the log **adaptively resizes**: when invalid entries dominate, the live
  tail is compacted, modelling the paper's adaptive circular buffer.

Two pieces of bookkeeping keep the trigger-time and sizing reads
proportional to what *changed* rather than to what is resident — the same
locality argument, applied to the store's own metadata:

* a **running payload-byte count**, adjusted by ``after - before`` at
  every site that changes a key's live payload, makes
  :attr:`LogStructuredStore.size_bytes` O(1) (it is read at every epoch
  boundary, checkpoint capture and migration plan);
* a **window index** ``window id -> keys``, maintained exactly where a
  ``(window_id, group_key)`` state key enters or leaves the hash index,
  lets :meth:`LogStructuredStore.window_items` and
  :meth:`LogStructuredStore.pop_window` read one window without scanning
  the log.  Members are returned sorted by current log address, i.e. in
  the order a full scan would have produced them.

Both are redundant with ``scan()`` by construction, and the property
tests hold them to it after every kind of mutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional

from repro.common.errors import StateError
from repro.state.crdt import Crdt
from repro.state.hash_index import HashIndex

# Fixed per-entry overhead (header + key) in serialized form.
ENTRY_HEADER_BYTES = 8
KEY_BYTES = 8


@dataclass(slots=True)
class LogEntry:
    """One record in the log."""

    key: Hashable
    payload: Any
    valid: bool = True


class LogStructuredStore:
    """A hash-indexed hybrid log holding one partition('s fragment)."""

    def __init__(self, crdt: Crdt, name: str = "", compact_threshold: float = 0.5):
        if not 0.0 < compact_threshold <= 1.0:
            raise StateError(f"compact_threshold must be in (0, 1], got {compact_threshold}")
        self.crdt = crdt
        self.name = name
        self.compact_threshold = compact_threshold
        self.index = HashIndex(name=f"{name}.idx")
        self._log: list[LogEntry] = []
        self._readonly_boundary = 0
        self._invalid = 0
        self.compactions = 0
        # Sum of crdt.value_bytes over the live payloads.  A fixed-size
        # CRDT changes it only when a key enters or leaves, so the batch
        # absorb loop prices payloads only when sizes actually vary.
        self._payload_bytes = 0
        self._varsized = type(crdt).value_bytes is not Crdt.value_bytes
        # window id -> live ``(window_id, group_key)`` keys of that window.
        self._windows: dict[Hashable, set] = {}

    # -- sizes ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.index)

    @property
    def log_length(self) -> int:
        """Total log positions, live or invalidated (pre-compaction)."""
        return len(self._log)

    @property
    def readonly_boundary(self) -> int:
        """First mutable log position (the hybrid-log split point)."""
        return self._readonly_boundary

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

        Used both for vectorised batch updates (the batch's per-key
        partial) and for leader-side merging of shipped fragment deltas.
        """
        self._rmw(key, partial, self.crdt.merge)

    def absorb_many(self, pairs: Iterable[tuple[Hashable, Any]]) -> None:
        """Merge a batch of ``(key, partial)`` pairs in one tight pass.

        Equivalent to calling :meth:`absorb` per pair in order, but with
        the index, log, and CRDT bound once per batch instead of once per
        key — the group-by-once-per-batch half of the state fast path.
        """
        index = self.index
        slots = index._slots
        log = self._log
        windows = self._windows
        merge = self.crdt.merge
        zero = self.crdt.zero
        value_bytes = self.crdt.value_bytes
        varsized = self._varsized
        boundary = self._readonly_boundary
        lookups = inserts = grown = 0
        for key, value in pairs:
            lookups += 1
            address = slots.get(key)
            if address is None:
                inserts += 1
                payload = merge(zero(), value)
                slots[key] = len(log)
                log.append(LogEntry(key, payload))
                if varsized:
                    grown += value_bytes(payload)
                if isinstance(key, tuple):
                    members = windows.get(key[0])
                    if members is None:
                        windows[key[0]] = {key}
                    else:
                        members.add(key)
                continue
            entry = log[address]
            if varsized:
                before = value_bytes(entry.payload)
                merged = merge(entry.payload, value)
                grown += value_bytes(merged) - before
            else:
                merged = merge(entry.payload, value)
            if address >= boundary:
                entry.payload = merged
                continue
            # Read-only region: copy-on-write to the mutable tail.
            entry.valid = False
            self._invalid += 1
            slots[key] = len(log)
            log.append(LogEntry(key, merged))
        index.lookups += lookups
        index.inserts += inserts
        self._payload_bytes += (
            grown if varsized else inserts * self.crdt.payload_bytes
        )

    def _rmw(self, key: Hashable, value: Any, combine: Callable[[Any, Any], Any]) -> None:
        value_bytes = self.crdt.value_bytes
        address = self.index.get(key)
        if address is None:
            payload = combine(self.crdt.zero(), value)
            self._append(key, payload)
            self._payload_bytes += value_bytes(payload)
            return
        entry = self._log[address]
        # Priced before combining: an append-log ``update`` extends in place.
        before = value_bytes(entry.payload)
        merged = combine(entry.payload, value)
        self._payload_bytes += value_bytes(merged) - before
        if address >= self._readonly_boundary:
            entry.payload = merged
            return
        # Read-only region: copy-on-write to the mutable tail.
        entry.valid = False
        self._invalid += 1
        self._append(key, merged)

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the live payload under ``key`` (None if absent)."""
        address = self.index.get(key)
        if address is None:
            return None
        return self._log[address].payload

    def remove(self, key: Hashable) -> Any:
        """Invalidate ``key`` and return its payload (window eviction)."""
        address = self.index.get(key)
        if address is None:
            raise StateError(f"store {self.name!r}: remove of absent key {key!r}")
        entry = self._log[address]
        entry.valid = False
        self._invalid += 1
        self._payload_bytes -= self.crdt.value_bytes(entry.payload)
        self.index.remove(key)
        if isinstance(key, tuple):
            self._leave_window(key)
        self._maybe_compact()
        return entry.payload

    def replace(self, key: Hashable, payload: Any) -> None:
        """Overwrite the payload under ``key`` (session-window rewrites)."""
        value_bytes = self.crdt.value_bytes
        self._payload_bytes += value_bytes(payload)
        address = self.index.get(key)
        if address is None:
            self._append(key, payload)
            return
        entry = self._log[address]
        self._payload_bytes -= value_bytes(entry.payload)
        if address >= self._readonly_boundary:
            entry.payload = payload
        else:
            entry.valid = False
            self._invalid += 1
            self._append(key, payload)

    # -- scans --------------------------------------------------------------------
    def scan(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate live ``(key, payload)`` pairs in log order.

        Log order is what a range scan over the LSS would produce; the
        paper's state backend must support such scans for window
        post-processing (Sec. 7.1.1).
        """
        for entry in self._log:
            if entry.valid:
                yield entry.key, entry.payload

    def window_items(self, window_id: Hashable) -> list[tuple[Hashable, Any]]:
        """Live ``(key, payload)`` pairs keyed ``(window_id, ·)``, in log order.

        Reads the window index instead of the log: the cost is the
        window's own size (plus sorting it by address), not the store's.
        """
        return [
            (entry.key, entry.payload) for entry in self._window_entries(window_id)
        ]

    def pop_window(self, window_id: Hashable) -> list[tuple[Hashable, Any]]:
        """Remove and return what :meth:`window_items` reads (a window fire)."""
        entries = self._window_entries(window_id)
        if not entries:
            return []
        slots = self.index._slots
        value_bytes = self.crdt.value_bytes
        pairs = []
        freed = 0
        for entry in entries:
            entry.valid = False
            del slots[entry.key]
            freed += value_bytes(entry.payload)
            pairs.append((entry.key, entry.payload))
        self._payload_bytes -= freed
        self._invalid += len(entries)
        del self._windows[window_id]
        self._maybe_compact()
        return pairs

    def _window_entries(self, window_id: Hashable) -> list[LogEntry]:
        members = self._windows.get(window_id)
        if not members:
            return []
        slots = self.index._slots
        log = self._log
        return [log[address] for address in sorted(map(slots.__getitem__, members))]

    # -- epoch delta ------------------------------------------------------------------
    def delta_pairs(self) -> list[tuple[Hashable, Any]]:
        """Live pairs modified since the read-only boundary (no side effects)."""
        return [
            (entry.key, entry.payload)
            for entry in self._log[self._readonly_boundary:]
            if entry.valid
        ]

    def delta_bytes(self) -> int:
        """Serialized size of the current delta (prices the RDMA transfer)."""
        return sum(
            ENTRY_HEADER_BYTES + KEY_BYTES + self.crdt.value_bytes(entry.payload)
            for entry in self._log[self._readonly_boundary:]
            if entry.valid
        )

    def mark_readonly(self) -> int:
        """Advance the boundary to the tail (step 2 of the epoch protocol).

        Freezes the current delta against concurrent CPU writes: further
        RMWs copy-on-write to the tail.  Returns the frozen boundary.
        """
        frozen = self._readonly_boundary
        self._readonly_boundary = len(self._log)
        return frozen

    def ship_delta(self) -> tuple[list[tuple[Hashable, Any]], int]:
        """Extract and invalidate the epoch delta (steps 2-4 for helpers).

        Returns ``(pairs, nbytes)``.  After shipping, the shipped keys are
        dropped entirely — the next RMW restarts from the CRDT zero, which
        is safe because the leader has merged the shipped partials
        (paper, Sec. 7.2.2 'Properties').
        """
        boundary = self._readonly_boundary
        log = self._log
        slots = self.index._slots
        windows = self._windows
        value_bytes = self.crdt.value_bytes
        per_entry = ENTRY_HEADER_BYTES + KEY_BYTES
        pairs: list[tuple[Hashable, Any]] = []
        nbytes = 0
        truncated_invalid = 0
        # One fused pass over the tail: extract the delta, price it, and
        # drop the shipped index entries.  Every valid tail entry is the
        # latest version of its key, so its index slot points back at it.
        for entry in log[boundary:]:
            if entry.valid:
                key = entry.key
                pairs.append((key, entry.payload))
                nbytes += per_entry + value_bytes(entry.payload)
                del slots[key]
                if isinstance(key, tuple):
                    # _leave_window, inlined: this loop ships every pair.
                    members = windows[key[0]]
                    members.discard(key)
                    if not members:
                        del windows[key[0]]
            else:
                truncated_invalid += 1
        # The whole tail is dead after a ship; truncating it (instead of
        # invalidating in place) keeps the log from accreting garbage and
        # triggering a full compaction every few epochs.
        del log[boundary:]
        self._invalid -= truncated_invalid
        self._payload_bytes -= nbytes - per_entry * len(pairs)
        self._maybe_compact()
        return pairs, nbytes

    # -- maintenance -----------------------------------------------------------------------
    def _append(self, key: Hashable, payload: Any) -> None:
        self.index.put(key, len(self._log))
        self._log.append(LogEntry(key, payload))
        if isinstance(key, tuple):
            # Idempotent on a copy-on-write of a key that is already a member.
            self._windows.setdefault(key[0], set()).add(key)

    def _leave_window(self, key: tuple) -> None:
        members = self._windows[key[0]]
        members.discard(key)
        if not members:
            del self._windows[key[0]]

    def _maybe_compact(self) -> None:
        if not self._log:
            return
        if self._invalid / len(self._log) < self.compact_threshold:
            return
        live = [entry for entry in self._log if entry.valid]
        boundary_live = sum(
            1 for entry in self._log[: self._readonly_boundary] if entry.valid
        )
        self._log = live
        self._invalid = 0
        self._readonly_boundary = boundary_live
        self.index.clear()
        for address, entry in enumerate(self._log):
            self.index.put(entry.key, address)
        self.compactions += 1
