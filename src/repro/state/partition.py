"""Key-space partitioning: leaders and helpers (paper Sec. 7.1.2).

The SSB divides the key-value space into ``n`` disjoint partitions for an
``n``-executor deployment.  Each executor *leads* exactly one partition
(its *primary* partition) and, because Slash never re-partitions input
data, every executor also accumulates a local *fragment* of every remote
partition, acting as that partition's *helper*.

The partitioner hashes only the **group key** (never the window id), so
every window instance of one group converges at the same leader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Optional, Sequence

import numpy as np

from repro.common.errors import StateError

# SplitMix64 constants, used as a cheap, well-mixed integer hash so that
# partition assignment is deterministic across runs (Python's hash() is
# randomized for strings).
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def stable_hash(key: Hashable) -> int:
    """A deterministic 64-bit hash for ints/str/tuples of them."""
    if isinstance(key, bool):
        value = int(key)
    elif isinstance(key, int):
        value = key & _MASK64
    elif isinstance(key, str):
        value = 0
        for char in key:
            value = (value * 131 + ord(char)) & _MASK64
    elif isinstance(key, tuple):
        value = len(key)
        for part in key:
            value = (value * 1099511628211 + stable_hash(part)) & _MASK64
    else:
        raise StateError(f"unhashable-for-partitioning key type: {type(key).__name__}")
    # SplitMix64 finalizer.
    value = (value + _SPLITMIX_GAMMA) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def stable_hash_array(keys: np.ndarray) -> np.ndarray:
    """Vectorised :func:`stable_hash` over an int64 key column.

    Bit-identical to the scalar path for integer keys, so a vectorised
    partitioner and a scalar leader lookup always agree on ownership.
    """
    # Unsigned array arithmetic wraps modulo 2**64 without a warning.
    value = keys.astype(np.uint64) + np.uint64(_SPLITMIX_GAMMA)
    value = (value ^ (value >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    value = (value ^ (value >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return value ^ (value >> np.uint64(31))


def int_column(keys: Sequence[Hashable]) -> Optional[np.ndarray]:
    """``keys`` as an int64 column if every key is a Python ``int`` that
    fits one, else None: the keys :func:`stable_hash_array` hashes exactly
    as :func:`stable_hash` does.  (``np.fromiter`` alone would also take
    ``"12"`` and ``1.5``, which the scalar hash treats otherwise.)"""
    if not set(map(type, keys)) <= {int}:
        return None
    try:
        return np.fromiter(keys, dtype=np.int64, count=len(keys))
    except OverflowError:
        return None


class KeyPartitioner:
    """Maps group keys to partition ids in ``[0, partitions)``."""

    def __init__(self, partitions: int):
        if partitions <= 0:
            raise StateError(f"partitions must be positive, got {partitions}")
        self.partitions = partitions

    def partition_of(self, group_key: Hashable) -> int:
        """The partition owning ``group_key``."""
        return stable_hash(group_key) % self.partitions

    def partition_array(self, group_keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`partition_of` over an int64 key column.

        Bit-identical to the scalar path (``stable_hash_array`` matches
        ``stable_hash`` for integers, and the modulus of a non-negative
        64-bit hash is representation-independent), so batched routing and
        scalar leader lookups always agree on ownership.
        """
        return (
            stable_hash_array(group_keys) % np.uint64(self.partitions)
        ).astype(np.int64)

    def __call__(self, group_key: Hashable) -> int:
        return self.partition_of(group_key)


class PartitionDirectory:
    """Who leads which partition; identity mapping by default.

    The paper's setup phase creates one primary partition per executor,
    so partition ``i`` is led by executor ``i``.  ``leaders`` overrides
    that: mapping several (or all) partitions onto a subset of executors
    yields the decoupled storage/compute layout the paper's challenge C1
    describes — pure compute executors become helpers for everything and
    ship all their state to the designated leader nodes.
    """

    def __init__(self, executors: int, leaders: Optional[list[int]] = None):
        if executors <= 0:
            raise StateError(f"executors must be positive, got {executors}")
        self.executors = executors
        self.partitioner = KeyPartitioner(executors)
        if leaders is None:
            self._leader_of = list(range(executors))
        else:
            if len(leaders) != executors:
                raise StateError(
                    f"leaders must map all {executors} partitions, got "
                    f"{len(leaders)}"
                )
            bad = [e for e in leaders if not 0 <= e < executors]
            if bad:
                raise StateError(f"leader ids out of range: {bad}")
            self._leader_of = list(leaders)
        #: partition -> term, bumped by every :meth:`reassign`.
        self.terms: dict[int, int] = {}
        #: One record per term bump, oldest first.
        self.fences: list[dict] = []

    def leader_of_partition(self, partition: int) -> int:
        """The executor leading ``partition``."""
        if not 0 <= partition < self.executors:
            raise StateError(f"partition {partition} out of range")
        return self._leader_of[partition]

    def leader_of_key(self, group_key: Hashable) -> int:
        """The executor leading the partition that owns ``group_key``."""
        return self._leader_of[self.partitioner(group_key)]

    def partitions_led_by(self, executor_id: int) -> list[int]:
        """All partitions ``executor_id`` leads (exactly one by default)."""
        return [p for p, e in enumerate(self._leader_of) if e == executor_id]

    def is_leader(self, executor_id: int, partition: int) -> bool:
        """Whether ``executor_id`` leads ``partition``."""
        return self.leader_of_partition(partition) == executor_id

    def term_of(self, partition: int) -> int:
        """Current term of ``partition`` (0 before any leadership change)."""
        return self.terms.get(partition, 0)

    def reassign(self, partition: int, new_leader: int, at_s: float = 0.0) -> int:
        """Move leadership of ``partition`` to ``new_leader`` under a new term.

        Failover and live migration alike reach this only through
        ``SlashExecutor.install``.  The directory is shared by every
        executor of a deployment, so all shippers see the new leader at
        once; the old leader's commits stay recorded under the old term.
        Returns the new term.
        """
        if not 0 <= partition < self.executors:
            raise StateError(f"partition {partition} out of range")
        if not 0 <= new_leader < self.executors:
            raise StateError(f"new leader {new_leader} out of range")
        old = self.term_of(partition)
        self.terms[partition] = old + 1
        self.fences.append({
            "victim": self._leader_of[partition], "partition": partition,
            "old_term": old, "new_term": old + 1, "at_s": at_s,
        })
        self._leader_of[partition] = new_leader
        return old + 1


@dataclass
class Handoff:
    """One change of leadership, applied by the new leader's
    ``SlashExecutor.install``.  Failover builds one from the victim's
    checkpoint, live migration from the source store's scan.
    """

    #: partition -> (its leader until now, the state pairs to install).
    partitions: dict[int, tuple[int, list]]
    #: ``(operator, partition, helper) -> epoch`` admission points to seed.
    ledger: dict = field(default_factory=dict)
    #: ``(window, last ingest time)`` pairs folded into the lag hints.
    hints: Iterable[tuple[int, float]] = ()
    #: Windows re-pended at ``dst`` besides those the pairs touch.
    windows: Iterable[int] = ()
    #: Fluid sub-ranges pre-copied before the flip (0 for a failover).
    ranges: int = 0
