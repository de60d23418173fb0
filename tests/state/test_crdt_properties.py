"""Property-based CRDT law checks, seeded via :mod:`repro.common.rng`.

Every CRDT in the registry must satisfy the algebra its base class
documents: ``merge`` commutative and associative with identity
``zero()``, and any split-fold-merge regrouping equal to one sequential
fold (the distribution property Slash's lazy merging relies on, paper
Sec. 5.1 / property P2).  Idempotence additionally holds for the
semilattice CRDTs (min/max) — and deliberately NOT for the counting
ones, which the suite pins down too, since exactly-once delivery is
what the epoch ledger exists to provide.

Payload equality for the append CRDT goes through ``finish`` (which
sorts): tuple concatenation is only commutative up to the ordering
``finish`` normalises away.
"""

import itertools
import struct

import numpy as np
import pytest

from repro.common.rng import RngTree
from repro.state.crdt import (
    AppendLogCrdt,
    AvgCrdt,
    CountCrdt,
    MaxCrdt,
    MinCrdt,
    SumCrdt,
    crdt_by_name,
    fold,
)

CRDT_NAMES = ("sum", "count", "min", "max", "avg", "append")
ROUNDS = 50


def _values(name: str, rng, n: int) -> list:
    """Random stream values a pipeline would feed this CRDT's update."""
    if name == "append":
        return [
            (int(ts), int(rng.integers(0, 8)), round(float(price), 2))
            for ts, price in zip(
                rng.integers(0, 10_000, size=n), rng.uniform(1.0, 100.0, size=n)
            )
        ]
    if name == "count":
        return [1] * n
    return [round(float(v), 3) for v in rng.uniform(-100.0, 100.0, size=n)]


def _payloads(name: str, rng, count: int, size: int = 8) -> list:
    """Random partial payloads (each the fold of a few stream values)."""
    crdt = crdt_by_name(name)
    return [
        fold(crdt, _values(name, rng, int(rng.integers(1, size + 1))))
        for _ in range(count)
    ]


def _canon(crdt, payload):
    """Comparable form of a payload (sorts append logs, rounds floats)."""
    if isinstance(crdt, AppendLogCrdt):
        return crdt.finish(payload)
    if isinstance(payload, tuple):
        return tuple(round(c, 9) if isinstance(c, float) else c for c in payload)
    if isinstance(payload, float):
        return round(payload, 9)
    return payload


@pytest.fixture(params=CRDT_NAMES)
def crdt_case(request, rng_tree):
    name = request.param
    return name, crdt_by_name(name), rng_tree.generator("crdt-properties", name)


class TestMergeAlgebra:
    def test_commutative(self, crdt_case):
        name, crdt, rng = crdt_case
        for _ in range(ROUNDS):
            a, b = _payloads(name, rng, 2)
            assert _canon(crdt, crdt.merge(a, b)) == _canon(crdt, crdt.merge(b, a))

    def test_associative(self, crdt_case):
        name, crdt, rng = crdt_case
        for _ in range(ROUNDS):
            a, b, c = _payloads(name, rng, 3)
            left = crdt.merge(crdt.merge(a, b), c)
            right = crdt.merge(a, crdt.merge(b, c))
            assert _canon(crdt, left) == _canon(crdt, right)

    def test_zero_is_identity(self, crdt_case):
        name, crdt, rng = crdt_case
        for _ in range(ROUNDS):
            (a,) = _payloads(name, rng, 1)
            assert _canon(crdt, crdt.merge(crdt.zero(), a)) == _canon(crdt, a)
            assert _canon(crdt, crdt.merge(a, crdt.zero())) == _canon(crdt, a)


class TestFoldDistribution:
    def test_split_fold_merge_equals_sequential_fold(self, crdt_case):
        """Any partition of the stream folds to the same merged payload."""
        name, crdt, rng = crdt_case
        for _ in range(ROUNDS):
            values = _values(name, rng, int(rng.integers(2, 40)))
            sequential = fold(crdt, values)
            cuts = sorted(
                int(c) for c in rng.integers(0, len(values) + 1, size=2)
            )
            parts = [values[: cuts[0]], values[cuts[0] : cuts[1]], values[cuts[1] :]]
            merged = crdt.zero()
            for part in parts:
                merged = crdt.merge(merged, fold(crdt, part))
            assert _canon(crdt, merged) == _canon(crdt, sequential)


class TestIdempotence:
    @pytest.mark.parametrize("crdt", [MinCrdt(), MaxCrdt()], ids=["min", "max"])
    def test_semilattice_merge_is_idempotent(self, crdt, rng):
        for _ in range(ROUNDS):
            a = fold(crdt, [float(v) for v in rng.uniform(-10, 10, size=4)])
            assert crdt.merge(a, a) == a

    @pytest.mark.parametrize(
        "crdt", [SumCrdt(), CountCrdt(), AvgCrdt(), AppendLogCrdt()],
        ids=["sum", "count", "avg", "append"],
    )
    def test_counting_merge_is_not_idempotent(self, crdt):
        """Re-merging a duplicate changes these payloads — the property
        that makes the ledger's exactly-once filtering load-bearing."""
        a = fold(crdt, [2.0, 3.0])
        assert _canon(crdt, crdt.merge(a, a)) != _canon(crdt, a)


class TestStoreAbsorb:
    def test_absorb_many_equals_pairwise_merge(self, crdt_case):
        """absorb_many through the log store equals merging by hand."""
        from repro.state.lss import LogStructuredStore

        name, crdt, rng = crdt_case
        for _ in range(10):
            keys = [int(k) for k in rng.integers(0, 6, size=10)]
            pairs = list(zip(keys, _payloads(name, rng, 10)))
            store = LogStructuredStore(crdt, name=f"prop-{name}")
            store.absorb_many(pairs)
            expected: dict = {}
            for key, partial in pairs:
                expected[key] = (
                    crdt.merge(expected[key], partial)
                    if key in expected
                    else partial
                )
            assert {k: _canon(crdt, v) for k, v in store.scan()} == {
                k: _canon(crdt, v) for k, v in expected.items()
            }


class TestPayloadColumns:
    """A declared payload column's merge is the scalar merge, bit for bit."""

    EDGES = (-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 1.5, -1.5)

    # ``inf + -inf`` is NaN in both merges; only numpy's says so out loud.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", ["sum", "min", "max"])
    def test_float_merge_table(self, name):
        crdt = crdt_by_name(name)
        # Every ordered pair, equal operands included.
        left, right = zip(*itertools.product(self.EDGES, repeat=2))
        merged = crdt.column.merge(
            np.array(left, dtype=crdt.column.dtype), np.array(right, dtype=crdt.column.dtype)
        ).tolist()
        for a, b, got in zip(left, right, merged):
            expected = crdt.merge(a, b)
            assert type(got) is float
            assert struct.pack("<d", got) == struct.pack("<d", expected), (a, b)

    def test_count_merge_table(self):
        crdt = crdt_by_name("count")
        values = (0, 1, 7, -3, 2**40)
        left, right = zip(*itertools.product(values, repeat=2))
        merged = crdt.column.merge(
            np.array(left, dtype=crdt.column.dtype), np.array(right, dtype=crdt.column.dtype)
        ).tolist()
        assert merged == [crdt.merge(a, b) for a, b in zip(left, right)]
        assert all(type(got) is int for got in merged)

    def test_only_fixed_size_scalars_declare_a_column(self):
        declared = {name for name in CRDT_NAMES if crdt_by_name(name).column is not None}
        assert declared == {"sum", "count", "min", "max"}
