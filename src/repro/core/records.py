"""Record schemas and numpy-backed record batches.

The data model follows the paper (Sec. 2.2): a stream is an unbounded
sequence of records, each carrying an event-time timestamp ``ts``, a
primary key ``key``, and further attributes.  Records move through the
engines in **batches** (one batch fills one RDMA channel buffer), stored
as numpy structured arrays so per-batch operator work is vectorised.

A schema carries ``record_bytes`` — the *wire* size of one record as the
paper's benchmarks define it (YSB 78 B, CM 64 B, NexMark bid 32 B, ...).
This logical size drives all bandwidth/memory accounting and is
independent of the numpy in-memory itemsize.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import QueryError

TIMESTAMP_FIELD = "ts"
KEY_FIELD = "key"


@dataclass(frozen=True)
class Schema:
    """A stream's field layout and wire size."""

    name: str
    fields: tuple[tuple[str, str], ...]
    record_bytes: int
    # Derived once in __post_init__ (every batch of this schema checks its
    # dtype against it); left out of init, equality, hashing and repr.
    field_names: tuple[str, ...] = field(init=False, compare=False, repr=False)
    #: The numpy structured dtype for batches of this schema.
    dtype: np.dtype = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        names = [f for f, _dtype in self.fields]
        if TIMESTAMP_FIELD not in names:
            raise QueryError(f"schema {self.name!r} lacks the {TIMESTAMP_FIELD!r} field")
        if KEY_FIELD not in names:
            raise QueryError(f"schema {self.name!r} lacks the {KEY_FIELD!r} field")
        if len(set(names)) != len(names):
            raise QueryError(f"schema {self.name!r} has duplicate fields: {names}")
        if self.record_bytes <= 0:
            raise QueryError(f"schema {self.name!r}: record_bytes must be positive")
        object.__setattr__(self, "field_names", tuple(names))
        object.__setattr__(self, "dtype", np.dtype(list(self.fields)))

    def batch_from_columns(self, **columns: np.ndarray) -> "RecordBatch":
        """Build a batch from per-field arrays (all the same length)."""
        missing = set(self.field_names) - set(columns)
        if missing:
            raise QueryError(f"schema {self.name!r}: missing columns {sorted(missing)}")
        lengths = {len(col) for col in columns.values()}
        if len(lengths) > 1:
            raise QueryError(f"schema {self.name!r}: ragged columns {lengths}")
        n = lengths.pop() if lengths else 0
        data = np.empty(n, dtype=self.dtype)
        for name in self.field_names:
            data[name] = columns[name]
        return RecordBatch(self, data)


class RecordBatch:
    """A batch of records of one schema, immutable once built.

    Operators derive new batches (``select`` / ``take`` copy) and never
    write to one in place.  For the batches a workload generates that is
    enforced, not just convention: the cells of a sweep share them, so
    ``Workload._batches`` clears the ``writeable`` flag of ``data``, and a
    write to ``data`` or to a ``col()`` view of it raises ``ValueError``.
    """

    __slots__ = ("schema", "data")

    def __init__(self, schema: Schema, data: np.ndarray):
        if data.dtype != schema.dtype:
            raise QueryError(
                f"batch dtype {data.dtype} does not match schema {schema.name!r}"
            )
        self.schema = schema
        self.data = data

    def __len__(self) -> int:
        return len(self.data)

    def col(self, name: str) -> np.ndarray:
        """A column by field name."""
        if name not in self.schema.field_names:
            raise QueryError(f"no field {name!r} in schema {self.schema.name!r}")
        return self.data[name]

    @property
    def timestamps(self) -> np.ndarray:
        return self.data[TIMESTAMP_FIELD]

    @property
    def keys(self) -> np.ndarray:
        return self.data[KEY_FIELD]

    @property
    def wire_bytes(self) -> int:
        """Serialized size of this batch on the wire / in state buffers."""
        return len(self.data) * self.schema.record_bytes

    @property
    def max_timestamp(self) -> float:
        """Greatest event time in the batch (-inf for an empty batch)."""
        if len(self.data) == 0:
            return float("-inf")
        return float(self.data[TIMESTAMP_FIELD].max())

    def select(self, mask: np.ndarray) -> "RecordBatch":
        """A new batch with only the rows where ``mask`` is True."""
        return RecordBatch(self.schema, self.data[mask])

    def take(self, indices: np.ndarray) -> "RecordBatch":
        """A new batch with the rows at ``indices``, in that order."""
        return RecordBatch(self.schema, self.data[indices])

    def row_tuples(self) -> list[tuple]:
        """Every row as a hashable tuple of plain Python scalars.

        One C-level conversion for the whole batch; holistic operators
        (the join build side) index the list per group.
        """
        return self.data.tolist()

    def __repr__(self) -> str:
        return f"RecordBatch({self.schema.name!r}, n={len(self.data)})"
