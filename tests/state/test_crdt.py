"""Unit and property tests for the CRDT strategies.

The property tests check the CRDT laws that property P2 of the paper
rests on: merge commutativity/associativity, identity, and the
equivalence of 'partition updates arbitrarily, fold each part, merge'
with a single sequential fold.
"""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import StateError
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

NUMERIC_CRDTS = [SumCrdt(), CountCrdt(), MinCrdt(), MaxCrdt()]
values_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=30
)


class TestNumericCrdts:
    def test_sum(self):
        crdt = SumCrdt()
        assert fold(crdt, [1, 2, 3]) == 6
        assert crdt.merge(6, 4) == 10

    def test_count_records_and_partials(self):
        crdt = CountCrdt()
        payload = crdt.update(crdt.zero(), "a-record-object-counts-as-one")
        assert payload == 1
        payload = crdt.update(payload, 5)  # pre-aggregated partial
        assert payload == 6

    def test_min_max_identities(self):
        assert MinCrdt().zero() == float("inf")
        assert MaxCrdt().zero() == float("-inf")
        assert fold(MinCrdt(), [3, 1, 2]) == 1
        assert fold(MaxCrdt(), [3, 1, 2]) == 3

    @pytest.mark.parametrize("crdt", NUMERIC_CRDTS, ids=lambda c: c.name)
    @given(values=values_strategy, split=st.integers(min_value=0, max_value=30))
    def test_property_split_merge_equals_sequential(self, crdt, values, split):
        split = min(split, len(values))
        left = fold(crdt, values[:split])
        right = fold(crdt, values[split:])
        assert crdt.merge(left, right) == pytest.approx(fold(crdt, values))

    @pytest.mark.parametrize("crdt", NUMERIC_CRDTS, ids=lambda c: c.name)
    @given(values=values_strategy)
    def test_property_merge_commutative(self, crdt, values):
        half = len(values) // 2
        a = fold(crdt, values[:half])
        b = fold(crdt, values[half:])
        assert crdt.merge(a, b) == pytest.approx(crdt.merge(b, a))

    @pytest.mark.parametrize("crdt", NUMERIC_CRDTS, ids=lambda c: c.name)
    @given(values=values_strategy)
    def test_property_zero_is_identity(self, crdt, values):
        payload = fold(crdt, values)
        assert crdt.merge(payload, crdt.zero()) == pytest.approx(payload)
        assert crdt.merge(crdt.zero(), payload) == pytest.approx(payload)


class TestAvgCrdt:
    def test_scalar_updates(self):
        crdt = AvgCrdt()
        payload = fold(crdt, [2.0, 4.0, 6.0])
        assert payload == (12.0, 3)
        assert crdt.finish(payload) == pytest.approx(4.0)

    def test_partial_updates(self):
        crdt = AvgCrdt()
        payload = crdt.update(crdt.zero(), (10.0, 4))
        assert payload == (10.0, 4)

    def test_merge(self):
        crdt = AvgCrdt()
        assert crdt.merge((10.0, 2), (20.0, 3)) == (30.0, 5)

    def test_empty_finish_raises(self):
        with pytest.raises(StateError):
            AvgCrdt().finish((0.0, 0))

    @given(values=values_strategy, split=st.integers(min_value=0, max_value=30))
    def test_property_distributed_mean_exact(self, values, split):
        crdt = AvgCrdt()
        split = min(split, len(values))
        merged = crdt.merge(fold(crdt, values[:split]), fold(crdt, values[split:]))
        assert crdt.finish(merged) == pytest.approx(sum(values) / len(values))


class TestAppendLogCrdt:
    def test_update_appends_one_record_to_a_new_tuple(self):
        crdt = AppendLogCrdt()
        first = crdt.update(crdt.zero(), 1)
        # A record is one entry even when it is itself a tuple.
        second = crdt.update(first, (2, 3))
        assert second == (1, (2, 3))
        assert first == (1,)

    def test_merge_concatenates(self):
        crdt = AppendLogCrdt()
        assert crdt.finish(crdt.merge((1, 3), (2,))) == [1, 2, 3]

    def test_merge_with_zero_returns_the_partial_itself(self):
        crdt = AppendLogCrdt()
        partial = (1, 2)
        assert crdt.merge(crdt.zero(), partial) is partial
        assert crdt.merge(partial, crdt.zero()) is partial

    def test_value_bytes_grows_with_records(self):
        crdt = AppendLogCrdt(record_bytes=32)
        assert crdt.value_bytes((1, 2, 3)) == 8 + 96

    @given(st.lists(st.integers(), max_size=20), st.lists(st.integers(), max_size=20))
    def test_property_merge_is_multiset_union(self, a, b):
        crdt = AppendLogCrdt()
        merged = crdt.finish(crdt.merge(tuple(a), tuple(b)))
        assert merged == sorted(a + b)


def test_registry_lookup():
    assert crdt_by_name("sum").name == "sum"
    assert crdt_by_name("append").name == "append"


def test_registry_unknown_raises():
    with pytest.raises(StateError, match="unknown CRDT"):
        crdt_by_name("median")
