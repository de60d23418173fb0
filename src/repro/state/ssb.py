"""The Slash State Backend facade (paper Sec. 7).

One :class:`SlashStateBackend` instance lives on each executor.  Engines
obtain an :class:`OperatorStateHandle` per stateful operator and use it
for the hot path:

* ``update`` / ``absorb`` / ``absorb_batch`` — per-record RMW, or the
  merge of a batch's per-group partial columns, into the fragment (or
  primary store) of the owning partition;
* ``collect_deltas`` — at an epoch boundary, freeze and extract the delta
  of every remote partition's fragment (the executor ships these over
  RDMA channels; the SSB itself is transport-agnostic);
* ``merge_delta`` — leader side: validate epoch order and fold a shipped
  delta into the primary store, advancing the vector clock with the
  piggybacked watermark;
* ``window_items`` / ``pop_window_columns`` / ``scan_columns`` /
  ``replace`` / ``remove`` — the window fires' reads and rewrites over
  the partitions this executor leads, under the names a single
  :class:`LogStructuredStore` gives them.  The window reads are one mask
  over each store's window column; ``fragment_bytes`` sums O(1) running
  counts.

Consistency contract (property P2): for every key, the merge of the
leader's primary payload with all shipped partials equals the sequential
fold of all updates — guaranteed by the CRDT laws plus the epoch ledger's
no-skip/no-replay validation.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterator, Optional, Sequence

import numpy as np

from repro.common.errors import StateError
from repro.state.crdt import Crdt
from repro.state.epoch import EpochDelta, EpochLedger
from repro.state.lss import LogStructuredStore
from repro.state.partition import PartitionDirectory, int_column
from repro.state.vector_clock import VectorClock, WatermarkTracker

# Serialized overhead of a delta message even when it carries no rows
# (header, epoch number, piggybacked watermark).
DELTA_HEADER_BYTES = 32


def state_keys(windows: Optional[np.ndarray], group_keys: Sequence[Hashable]) -> list:
    """State keys from group columns: ``(window, key)`` tuples, or the bare
    group keys when ``windows`` is None."""
    keys = group_keys.tolist() if isinstance(group_keys, np.ndarray) else list(group_keys)
    if windows is None:
        return keys
    return list(zip(windows.tolist(), keys))


class OperatorStateHandle:
    """Per-operator state access on one executor."""

    def __init__(
        self,
        backend: "SlashStateBackend",
        operator_id: str,
        crdt: Crdt,
    ):
        # The backend's parts, not the backend: it holds this handle.
        self.directory = directory = backend.directory
        self.executor_id = backend.executor_id
        self.watermarks = backend.watermarks
        self.clock = backend.clock
        self.ledger = backend.ledger
        self.sanitizer = backend.sanitizer
        self.operator_id = operator_id
        self.crdt = crdt
        self._stores = [
            LogStructuredStore(crdt, name=f"{operator_id}.p{p}@e{backend.executor_id}")
            for p in range(directory.executors)
        ]
        self._epochs_shipped = [0] * directory.executors
        # Group-key -> partition memo: the key->partition mapping is fixed
        # for the handle's lifetime (failover reassigns *leaders*, never
        # the hash mapping), and stream keys repeat heavily, so per-record
        # updates hit a dict instead of re-running the SplitMix64 hash.
        self._partition_cache: dict[Hashable, int] = {}

    # -- hot path ----------------------------------------------------------
    def store_for(self, partition: int) -> LogStructuredStore:
        """The local store (fragment or primary) holding ``partition``."""
        return self._stores[partition]

    def partition_of(self, key: Hashable) -> int:
        """Route a *state key* to its partition via its group component.

        State keys are either bare group keys or ``(window_id, group_key)``
        tuples; only the group component is hashed so that all windows of
        one group share a leader.
        """
        return self._group_partition(key[1] if isinstance(key, tuple) else key)

    def _group_partition(self, group_key: Hashable) -> int:
        """The partition of one group key, memoized."""
        cache = self._partition_cache
        partition = cache.get(group_key)
        if partition is None:
            partition = self.directory.partitioner(group_key)
            cache[group_key] = partition
        return partition

    def update(self, key: Hashable, value: Any) -> None:
        """RMW one stream value into ``key``'s payload."""
        self._stores[self.partition_of(key)].update(key, value)

    def absorb(self, key: Hashable, partial: Any) -> None:
        """Merge a pre-aggregated partial payload into ``key``."""
        self._stores[self.partition_of(key)].absorb(key, partial)

    def absorb_batch(
        self,
        windows: Optional[np.ndarray],
        group_keys: Sequence[Hashable],
        partials: Sequence[Any],
    ) -> list[int]:
        """Absorb one batch's per-group partials, given as columns.

        Group ``i`` is state key ``(windows[i], group_keys[i])``, or the
        bare group key when ``windows`` is None (session state); groups are
        distinct, as a batch reduction yields them.  Equivalent to
        ``absorb`` per group in column order: :meth:`partition_columns`
        hands each store its groups as one column batch, and partitions
        touch disjoint stores.  Returns the batch's distinct window ids,
        ascending.
        """
        if not len(group_keys):
            return []
        for partition, keys, part_windows, part_partials in self.partition_columns(
            windows, group_keys, partials
        ):
            self._stores[partition].absorb_columns(keys, part_windows, part_partials)
        return [] if windows is None else sorted(set(windows.tolist()))

    def partition_columns(
        self,
        windows: Optional[np.ndarray],
        group_keys: Sequence[Hashable],
        partials: Sequence[Any],
    ) -> Iterator[tuple[int, list, Optional[np.ndarray], Sequence[Any]]]:
        """Split one batch's group columns by partition.

        Yields ``(partition, state keys, windows, partials)`` for every
        partition holding a group, ascending: one stable argsort of the
        groups' partitions (the vectorised hash; the scalar one for
        non-integer keys) keeps each partition's groups in their original
        relative order.
        """
        if len(self._stores) == 1:
            # Single-executor deployment: everything is led locally, so
            # routing (and hashing) is pure overhead.
            yield 0, state_keys(windows, group_keys), windows, partials
            return
        partition_ids = self._partitions_of(group_keys)
        ends = np.cumsum(np.bincount(partition_ids, minlength=len(self._stores))).tolist()
        order = np.argsort(partition_ids, kind="stable")
        if windows is not None:
            windows = windows[order]
        group_keys, partials = (
            column[order] if isinstance(column, np.ndarray)
            else list(map(column.__getitem__, order.tolist()))
            for column in (group_keys, partials)
        )
        keys = state_keys(windows, group_keys)
        start = 0
        for partition, end in enumerate(ends):
            if end > start:
                yield (
                    partition,
                    keys[start:end],
                    None if windows is None else windows[start:end],
                    partials[start:end],
                )
            start = end

    def _partitions_of(self, group_keys: Sequence[Hashable]) -> np.ndarray:
        """The partition of every group key, hashed as one int64 column."""
        if isinstance(group_keys, np.ndarray) and group_keys.dtype.kind == "i":
            column = group_keys.astype(np.int64, copy=False)
        else:
            column = int_column(group_keys)
            if column is None:
                # Non-integer group keys (strings, nested tuples): scalar route.
                return np.fromiter(
                    map(self._group_partition, group_keys),
                    dtype=np.int64,
                    count=len(group_keys),
                )
        return self.directory.partitioner.partition_array(column)

    def get_local(self, key: Hashable) -> Optional[Any]:
        """Read ``key``'s payload from this executor's local store only."""
        return self._stores[self.partition_of(key)].get(key)

    # -- epoch synchronisation ------------------------------------------------
    def collect_deltas(self) -> list[EpochDelta]:
        """Freeze and extract this epoch's delta for every remote partition.

        Steps 1-2 of the synchronisation phase (Fig. 5b): the fragments of
        all partitions this executor does *not* lead are marked read-only,
        drained, and reset.  An (empty) delta is produced even for clean
        fragments so the leader still learns the helper's watermark and
        the epoch sequence stays dense.
        """
        deltas = []
        for partition in range(self.directory.executors):
            if self.directory.is_leader(self.executor_id, partition):
                continue
            store = self._stores[partition]
            # ship_delta atomically freezes and drains the mutable region
            # (the simulation analogue of mark-read-only + DMA + invalidate).
            keys, key_windows, payloads, nbytes = store.ship_delta()
            epoch = self._epochs_shipped[partition]
            self._epochs_shipped[partition] += 1
            deltas.append(
                EpochDelta(
                    operator_id=self.operator_id,
                    partition=partition,
                    from_executor=self.executor_id,
                    epoch=epoch,
                    keys=keys,
                    key_windows=key_windows,
                    payloads=payloads,
                    nbytes=nbytes + DELTA_HEADER_BYTES,
                    watermark=self.watermarks.watermark,
                )
            )
        return deltas

    def merge_delta(self, delta: EpochDelta) -> bool:
        """Leader side: validate and fold a shipped delta (step 4).

        Returns whether the delta was *fresh*.  A re-delivered delta
        (retransmission, recovery replay) is deduplicated by the epoch
        ledger and dropped without touching the store or the clock, so
        merges stay exactly-once.
        """
        if delta.operator_id != self.operator_id:
            raise StateError(
                f"delta for operator {delta.operator_id!r} offered to "
                f"{self.operator_id!r}"
            )
        if not self.directory.is_leader(self.executor_id, delta.partition):
            raise StateError(
                f"executor {self.executor_id} is not the leader of "
                f"partition {delta.partition}"
            )
        fresh = self.ledger.admit(delta)
        # The exactly-once audit sits *outside* admit(), re-deriving the
        # correct ruling from its own shadow account — so a bug inside the
        # ledger's dedupe logic is caught rather than trusted.
        san = self.sanitizer
        if san is not None:
            san.note_ledger_admit(id(self.ledger), delta, fresh)
        if not fresh:
            return False
        store = self._stores[delta.partition]
        if self.crdt.fixed_size:
            # A shipped log tail holds each key once.
            store.absorb_columns(delta.keys, delta.key_windows, delta.payloads)
        else:
            # A chunked delta may carry one oversized append log cut into
            # pieces under the same key.
            store.absorb_runs(delta.keys, delta.key_windows, delta.payloads)
        self.clock.advance(delta.from_executor, delta.watermark)
        return True

    # -- trigger-time reads ----------------------------------------------------------
    # The window fires (``core/fire.py``) use a handle as they use one
    # ``LogStructuredStore``, through the same five names; a read covers
    # the partitions this executor leads, partition by partition in log
    # order.
    def _led_stores(self) -> list[LogStructuredStore]:
        return [
            self._stores[partition]
            for partition in self.directory.partitions_led_by(self.executor_id)
        ]

    def _led_columns(self, read: Callable[[LogStructuredStore], tuple]) -> tuple[list, list]:
        """``read``'s ``(keys, payloads)`` over every led store, concatenated."""
        keys: list = []
        payloads: list = []
        for store in self._led_stores():
            store_keys, store_payloads = read(store)
            keys += store_keys
            payloads += store_payloads
        return keys, payloads

    def window_items(self, window_id: int) -> list[tuple[Hashable, Any]]:
        """The led ``((window_id, group_key), payload)`` pairs, left in place
        (a sliding window's slice outlives the fire)."""
        return [pair for store in self._led_stores() for pair in store.window_items(window_id)]

    def pop_window_columns(self, window_id: int) -> tuple[list, list]:
        """Pop the led ``(window_id, group_key)`` keys and their payloads."""
        return self._led_columns(lambda store: store.pop_window_columns(window_id))

    def scan_columns(self) -> tuple[list, list]:
        """The live led ``(keys, payloads)``."""
        return self._led_columns(LogStructuredStore.scan_columns)

    def replace(self, key: Hashable, payload: Any) -> None:
        """Overwrite a payload in a led partition (session-window rewrite)."""
        self._led_store_of(key).replace(key, payload)

    def remove(self, key: Hashable) -> Any:
        """Remove a payload from a led partition."""
        return self._led_store_of(key).remove(key)

    def _led_store_of(self, key: Hashable) -> LogStructuredStore:
        partition = self.partition_of(key)
        if not self.directory.is_leader(self.executor_id, partition):
            raise StateError(f"key {key!r} is not led by this executor")
        return self._stores[partition]

    # -- sizing ------------------------------------------------------------------------------
    def fragment_bytes(self) -> int:
        """Resident bytes across every local store of this operator."""
        return sum(store.size_bytes for store in self._stores)

    def working_set_bytes(self) -> int:
        """The hot set a per-record RMW touches, for the cache model."""
        return self.fragment_bytes()


class SlashStateBackend:
    """All operator state of one executor, plus progress tracking."""

    def __init__(self, executor_id: int, directory: PartitionDirectory, sanitizer: Any = None):
        if not 0 <= executor_id < directory.executors:
            raise StateError(
                f"executor id {executor_id} out of range for "
                f"{directory.executors} executors"
            )
        self.executor_id = executor_id
        self.directory = directory
        self.sanitizer = sanitizer
        self.watermarks = WatermarkTracker(executor_id, sanitizer=sanitizer)
        self.clock = VectorClock(
            range(directory.executors), sanitizer=sanitizer, name=f"clock@e{executor_id}"
        )
        self.ledger = EpochLedger(sanitizer=sanitizer, name=f"ledger@e{executor_id}")
        self._handles: dict[str, OperatorStateHandle] = {}

    def handle(self, operator_id: str, crdt: Crdt) -> OperatorStateHandle:
        """Get or create the state handle for ``operator_id``."""
        existing = self._handles.get(operator_id)
        if existing is not None:
            if existing.crdt is not crdt and type(existing.crdt) is not type(crdt):
                raise StateError(
                    f"operator {operator_id!r} re-registered with a different CRDT"
                )
            return existing
        handle = OperatorStateHandle(self, operator_id, crdt)
        self._handles[operator_id] = handle
        return handle

    def handles(self) -> list[OperatorStateHandle]:
        """All registered handles."""
        return list(self._handles.values())

    def observe_watermark(self, timestamp: float) -> None:
        """Advance both the local watermark and this executor's clock entry."""
        self.watermarks.observe(timestamp)
        self.clock.advance(self.executor_id, self.watermarks.watermark)

    def total_state_bytes(self) -> int:
        """Resident state bytes across all operators on this executor."""
        return sum(handle.fragment_bytes() for handle in self._handles.values())
