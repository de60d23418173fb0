"""Additional CRDT edge cases: identity laws under merges with zero,
mixed partial/raw updates, and byte-size accounting used for pricing."""

import pytest
from hypothesis import given, strategies as st

from repro.state.crdt import (
    AppendLogCrdt,
    AvgCrdt,
    CountCrdt,
    MaxCrdt,
    MinCrdt,
    SumCrdt,
    fold,
)


def test_min_of_only_zeros_is_identity():
    crdt = MinCrdt()
    assert crdt.merge(crdt.zero(), crdt.zero()) == float("inf")


def test_max_update_with_negative_values():
    crdt = MaxCrdt()
    payload = fold(crdt, [-5.0, -2.0, -9.0])
    assert payload == -2.0


def test_count_mixed_partials_and_records():
    crdt = CountCrdt()
    payload = crdt.zero()
    payload = crdt.update(payload, "record")      # +1
    payload = crdt.update(payload, 7)              # pre-aggregated +7
    payload = crdt.update(payload, 2.0)            # numeric partial +2
    assert payload == 10


def test_avg_merge_with_zero_payload():
    crdt = AvgCrdt()
    payload = crdt.merge(crdt.zero(), (6.0, 3))
    assert crdt.finish(payload) == pytest.approx(2.0)


def test_append_value_bytes_of_empty():
    crdt = AppendLogCrdt(record_bytes=64)
    assert crdt.value_bytes(()) == 8


@pytest.mark.parametrize(
    "crdt",
    [SumCrdt(), CountCrdt(), MinCrdt(), MaxCrdt(), AvgCrdt(), AppendLogCrdt(), AppendLogCrdt(64)],
    ids=lambda crdt: f"{crdt.name}{getattr(crdt, 'record_bytes', '')}",
)
def test_column_bytes_is_the_sum_of_value_bytes(crdt, rng):
    """``column_bytes`` prices a column exactly as its payloads one by one."""
    for _ in range(50):
        values = rng.integers(-50, 50, size=int(rng.integers(0, 6))).tolist()
        payloads = [
            fold(crdt, values[:cut])
            for cut in rng.integers(0, len(values) + 1, size=int(rng.integers(0, 8))).tolist()
        ]
        assert crdt.column_bytes(payloads) == sum(map(crdt.value_bytes, payloads))
    assert crdt.column_bytes([]) == 0


def test_scalar_payload_bytes_constant():
    assert SumCrdt().value_bytes(1e12) == SumCrdt().value_bytes(0.0)
    assert AvgCrdt().payload_bytes > SumCrdt().payload_bytes  # pair vs scalar


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=20))
def test_property_avg_never_divides_by_zero_after_updates(values):
    crdt = AvgCrdt()
    payload = fold(crdt, values)
    result = crdt.finish(payload)
    assert result == pytest.approx(sum(values) / len(values))


@given(
    st.lists(st.integers(0, 100), max_size=15),
    st.lists(st.integers(0, 100), max_size=15),
    st.lists(st.integers(0, 100), max_size=15),
)
def test_property_append_merge_associative(a, b, c):
    crdt = AppendLogCrdt()
    left = crdt.merge(crdt.merge(tuple(a), tuple(b)), tuple(c))
    right = crdt.merge(tuple(a), crdt.merge(tuple(b), tuple(c)))
    assert crdt.finish(left) == crdt.finish(right)
