"""Conflict-free replicated data types for window state (paper Sec. 5.1).

Slash executors update the *same logical* key-value pair concurrently on
different nodes; consistency comes from representing each value as a CRDT
so that lazily-merged partial states converge to the value a sequential
execution would have produced (property *P2*).

Two families, exactly as the paper describes:

* **non-holistic** window computations (aggregations) rely on the
  commutativity and associativity of the aggregate — each node keeps a
  partial aggregate and the merge combines them (e.g. the sum CRDT stores
  partial sums and the final result is their sum);
* **holistic** window computations (joins) rely on a join-semilattice
  over sets with delta updates — each node appends the records it saw,
  and the merge concatenates the disjoint partial sets.

A CRDT here is a *strategy object*: state values in the store are plain,
immutable Python payloads, and the CRDT supplies ``zero`` / ``update`` /
``merge`` / ``finish`` plus a byte-size estimate used to price delta
shipping.  ``update`` and ``merge`` return new payloads and never change
their arguments, so a checkpoint or snapshot shares the payloads it
captures: later folds cannot reach them.

A fixed-size scalar CRDT also declares its :class:`PayloadColumn`: the
numpy dtype its payloads live in and the element-wise merge that equals
its scalar ``merge`` bit for bit.  The log-structured store keeps such
payloads in one numpy column, and the per-batch group reduction reads the
same declaration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from repro.common.errors import StateError


@dataclass(frozen=True)
class PayloadColumn:
    """How a fixed-size CRDT's payloads live in one numpy column.

    ``merge`` is the element-wise form of the scalar ``Crdt.merge``, equal
    to it bit for bit (signed zeros and NaNs included).  ``reduce`` is the
    ufunc whose ``reduceat`` folds a batch's sorted value column into one
    partial per group; ``None`` means the partial is the group's row count
    and the value column is not read.
    """

    dtype: type
    merge: Callable[[np.ndarray, np.ndarray], np.ndarray]
    reduce: Optional[np.ufunc]


def _min_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # ``a if a < b else b`` per element: NaN compares false, so it picks
    # ``b`` exactly where the scalar merge does.
    return np.where(a < b, a, b)


def _max_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.where(a > b, a, b)


class Crdt:
    """Base strategy: subclasses define the payload algebra.

    Laws every subclass must satisfy (enforced by property tests):
    ``merge`` is commutative and associative with identity ``zero()``, and
    folding updates then merging in any grouping yields the same result as
    a single sequential fold.
    """

    name = "abstract"
    # Estimated serialized bytes of key + fixed-size payload, used to price
    # epoch delta transfers.  Holistic CRDTs override value_bytes instead.
    payload_bytes = 16
    # The numpy column of a fixed-size scalar payload; None keeps payloads
    # as Python objects (tuples) merged one pair at a time.
    column: Optional[PayloadColumn] = None
    # Whether ``merge(zero(), p)`` returns ``p`` itself for every partial:
    # a store may then keep a new key's first partial without merging it.
    # Not so for avg, whose ``(0.0, 0)`` turns a ``-0.0`` sum into ``0.0``.
    exact_zero = False

    def zero(self) -> Any:
        """The identity payload (a fresh, never-updated value)."""
        raise NotImplementedError

    def update(self, current: Any, value: Any) -> Any:
        """Fold one stream value into a payload (the RMW of Sec. 7.1.1)."""
        raise NotImplementedError

    def merge(self, a: Any, b: Any) -> Any:
        """Combine two partial payloads (the lazy merge of Sec. 5.1)."""
        raise NotImplementedError

    def finish(self, payload: Any) -> Any:
        """Turn a fully-merged payload into the query result value."""
        return payload

    def value_bytes(self, payload: Any) -> int:
        """Serialized size of one payload, for network cost accounting."""
        return self.payload_bytes

    def column_bytes(self, payloads: Sequence[Any]) -> int:
        """``value_bytes`` summed over a column of payloads."""
        return sum(map(self.value_bytes, payloads))

    @property
    def fixed_size(self) -> bool:
        """Whether every payload prices at ``payload_bytes``."""
        return type(self).value_bytes is Crdt.value_bytes

    @property
    def plain_finish(self) -> bool:
        """Whether ``finish`` returns the payload as it is."""
        return type(self).finish is Crdt.finish

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SumCrdt(Crdt):
    """Commutative sum; the paper's running example."""

    name = "sum"
    column = PayloadColumn(np.float64, np.add, np.add)

    def zero(self) -> float:
        return 0.0

    def update(self, current: float, value: float) -> float:
        return current + value

    def merge(self, a: float, b: float) -> float:
        return a + b


class CountCrdt(Crdt):
    """Occurrence counting (the YSB and RO aggregations)."""

    name = "count"
    payload_bytes = 16
    column = PayloadColumn(np.int64, np.add, None)

    def zero(self) -> int:
        return 0

    def update(self, current: int, value: Any) -> int:
        # ``value`` may carry a pre-aggregated partial count from a
        # vectorised batch update; plain records count as 1.
        return current + (int(value) if isinstance(value, (int, float)) else 1)

    def merge(self, a: int, b: int) -> int:
        return a + b


class MinCrdt(Crdt):
    """Minimum; identity is +infinity."""

    name = "min"
    column = PayloadColumn(np.float64, _min_merge, np.minimum)

    def zero(self) -> float:
        return float("inf")

    def update(self, current: float, value: float) -> float:
        return value if value < current else current

    def merge(self, a: float, b: float) -> float:
        return a if a < b else b


class MaxCrdt(Crdt):
    """Maximum; identity is -infinity."""

    name = "max"
    column = PayloadColumn(np.float64, _max_merge, np.maximum)

    def zero(self) -> float:
        return float("-inf")

    def update(self, current: float, value: float) -> float:
        return value if value > current else current

    def merge(self, a: float, b: float) -> float:
        return a if a > b else b


class AvgCrdt(Crdt):
    """Arithmetic mean as a (sum, count) pair; finish divides.

    This is the CM benchmark's aggregate (mean CPU utilisation per job).
    ``update`` accepts either a scalar sample or a pre-aggregated
    ``(sum, count)`` partial from a vectorised batch.
    """

    name = "avg"
    payload_bytes = 24

    def zero(self) -> tuple[float, int]:
        return (0.0, 0)

    def update(self, current: tuple[float, int], value: Any) -> tuple[float, int]:
        total, count = current
        if isinstance(value, tuple):
            return (total + value[0], count + value[1])
        return (total + float(value), count + 1)

    def merge(self, a: tuple[float, int], b: tuple[float, int]) -> tuple[float, int]:
        return (a[0] + b[0], a[1] + b[1])

    def finish(self, payload: tuple[float, int]) -> float:
        total, count = payload
        if count == 0:
            raise StateError("average of an empty window payload")
        return total / count


class AppendLogCrdt(Crdt):
    """Holistic state: a grow-only tuple of records (join build sides).

    The merge concatenates, which is the join-semilattice the paper cites
    (Sec. 5.1): distributed executors append disjoint subsets, and the
    lazy concatenation of all partial values with the same key is exactly
    the set a sequential execution would have accumulated.  Result order
    is normalised by ``finish`` so P2 comparisons are order-insensitive.

    Payloads are tuples: merging into the zero returns the partial itself
    (``() + p is p``), and CPython's cyclic collector stops tracking a
    tuple of plain records after the first collection it survives, where
    it scans a list at every one.
    """

    name = "append"
    exact_zero = True

    def __init__(self, record_bytes: int = 32):
        self.record_bytes = record_bytes

    def zero(self) -> tuple:
        return ()

    def update(self, current: tuple, value: Any) -> tuple:
        return current + (value,)

    def merge(self, a: tuple, b: tuple) -> tuple:
        return a + b

    def finish(self, payload: tuple) -> list:
        return sorted(payload)

    def value_bytes(self, payload: tuple) -> int:
        return 8 + self.record_bytes * len(payload)

    def length_bytes(self, lengths: np.ndarray) -> np.ndarray:
        """``value_bytes`` of payloads of these lengths, element-wise."""
        return 8 + self.record_bytes * lengths

    def column_bytes(self, payloads: Sequence[tuple]) -> int:
        return 8 * len(payloads) + self.record_bytes * sum(map(len, payloads))


_REGISTRY: dict[str, Crdt] = {
    crdt.name: crdt
    for crdt in (SumCrdt(), CountCrdt(), MinCrdt(), MaxCrdt(), AvgCrdt(), AppendLogCrdt())
}


def crdt_by_name(name: str) -> Crdt:
    """Look up a shared CRDT strategy instance by its registry name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise StateError(
            f"unknown CRDT {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def fold(crdt: Crdt, values: Iterable[Any]) -> Any:
    """Sequentially fold ``values`` into a fresh payload (reference path)."""
    payload = crdt.zero()
    for value in values:
        payload = crdt.update(payload, value)
    return payload
