"""A FASTER-style hash index: key to log-address mapping (paper Sec. 7.2.1).

The paper decouples indexing from storage: one hash index per partition
points into one or more log-structured stores.  We keep the index honest
to that contract — it maps keys to *log addresses* (integer positions),
never to values — and track the statistics the cost model needs (size,
lookups) so engines can price index probes against the cache model.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Hashable, Iterator, Optional, Sequence

import numpy as np

from repro.common.errors import StateError

# Bytes one index bucket entry occupies (FASTER: 8-byte atomic word per
# entry plus tag bits; we include bucket overhead).
INDEX_ENTRY_BYTES = 16


class HashIndex:
    """Maps keys to log addresses; addresses are opaque non-negative ints."""

    def __init__(self, name: str = ""):
        self.name = name
        self._slots: dict[Hashable, int] = {}
        self.lookups = 0
        self.inserts = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._slots

    def get(self, key: Hashable) -> Optional[int]:
        """Return the log address of ``key`` or None if absent."""
        self.lookups += 1
        return self._slots.get(key)

    def put(self, key: Hashable, address: int) -> None:
        """Point ``key`` at ``address`` (insert or move)."""
        if address < 0:
            raise StateError(f"index {self.name!r}: negative address {address}")
        if key not in self._slots:
            self.inserts += 1
        self._slots[key] = address

    def remove(self, key: Hashable) -> None:
        """Drop ``key``; raising if it was never present."""
        try:
            del self._slots[key]
        except KeyError:
            raise StateError(f"index {self.name!r}: remove of absent key {key!r}") from None

    def keys(self) -> Iterator[Hashable]:
        """Iterate over the indexed keys (no defined order)."""
        return iter(self._slots)

    # -- bulk operations: one C-level pass over a batch of keys ---------------
    def probe(self, keys: Sequence[Hashable]) -> np.ndarray:
        """The addresses of ``keys`` as int64, -1 where absent (one lookup each)."""
        self.lookups += len(keys)
        if not self._slots:  # a drained fragment: every key misses
            return np.full(len(keys), -1, dtype=np.int64)
        return np.array(list(map(self._slots.get, keys, repeat(-1))), dtype=np.int64)

    def put_many(self, keys: Sequence[Hashable], first_address: int) -> None:
        """Point distinct ``keys`` at consecutive addresses from ``first_address``."""
        slots = self._slots
        before = len(slots)
        slots.update(zip(keys, range(first_address, first_address + len(keys))))
        self.inserts += len(slots) - before

    def remove_many(self, keys: list) -> None:
        """Drop distinct ``keys``, every one of which is present."""
        if len(keys) == len(self._slots):
            self._slots.clear()
        else:
            deque(map(self._slots.__delitem__, keys), maxlen=0)

    def rebuild(self, keys: list) -> None:
        """Re-point ``keys`` at addresses ``0..n-1`` (log compaction).

        Every key was indexed already, so nothing counts as an insert.
        """
        self._slots = dict(zip(keys, range(len(keys))))

    @property
    def size_bytes(self) -> int:
        """Approximate resident size, for working-set cost estimates."""
        return len(self._slots) * INDEX_ENTRY_BYTES
