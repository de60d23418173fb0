"""The fluid strategy's per-range byte count against the scalar loop.

``SlashElasticCoordinator._range_bytes`` prices one sub-range of a
partition with one column pass (a vectorised hash of the group keys, a
masked byte sum); it must equal the loop that hashes and prices key by
key, for integer and string keys, windowed and bare state keys, and
fixed-size and append-log payloads.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.elastic.migration import SlashElasticCoordinator
from repro.elastic.plan import subrange_of, subranges_of
from repro.state.crdt import AppendLogCrdt, CountCrdt
from repro.state.lss import LogStructuredStore
from tests.helpers import rmw

INT64_MAX = int(np.iinfo(np.int64).max)


def scalar_range_bytes(store, crdt, ranges, range_id):
    total = 0
    for key, payload in store.scan():
        group_key = key[1] if isinstance(key, tuple) else key
        if subrange_of(group_key, ranges) == range_id:
            total += 16 + crdt.value_bytes(payload)
    return total


def group_keys(kind, rng, count):
    if kind == "int":
        keys = rng.integers(-(1 << 40), 1 << 40, size=count).tolist()
        return keys + [0, -1, INT64_MAX, -INT64_MAX - 1]
    if kind == "wide-int":  # one key past int64: the scalar route
        return rng.integers(0, 1000, size=count).tolist() + [INT64_MAX + 5]
    return [f"user-{k}" for k in rng.integers(0, 10_000, size=count).tolist()]


@pytest.mark.parametrize("kind", ["int", "wide-int", "str"])
@pytest.mark.parametrize("crdt", [CountCrdt(), AppendLogCrdt(record_bytes=24)],
                         ids=["count", "append-log"])
@pytest.mark.parametrize("windowed", [True, False], ids=["windowed", "bare"])
def test_range_bytes_equals_scalar_loop(kind, crdt, windowed, rng):
    store = LogStructuredStore(crdt)
    for key in group_keys(kind, rng, 300):
        state_key = (int(rng.integers(0, 4)), key) if windowed else key
        if crdt.fixed_size:
            rmw(store, state_key, 1)
        else:
            for record in range(int(rng.integers(1, 6))):
                rmw(store, state_key, (0, (record,)))
    for victim in [key for key, _payload in store.scan()][::7]:
        store.remove(victim)  # invalid rows the scan must skip
    executor = SimpleNamespace(handle=SimpleNamespace(store_for=lambda _p: store, crdt=crdt))
    for ranges in (1, 3, 8):
        coordinator = SimpleNamespace(plan=SimpleNamespace(fluid_ranges=ranges))
        got = [
            SlashElasticCoordinator._range_bytes(coordinator, executor, 0, range_id)
            for range_id in range(ranges)
        ]
        want = [scalar_range_bytes(store, crdt, ranges, r) for r in range(ranges)]
        assert got == want
        assert sum(got) == sum(16 + crdt.value_bytes(p) for _k, p in store.scan())


def test_subranges_of_matches_scalar(rng):
    keys = rng.integers(-(1 << 62), 1 << 62, size=500).tolist() + [True, False, "a", (1, 2)]
    for ranges in (1, 5, 8):
        assert subranges_of(keys, ranges).tolist() == [subrange_of(k, ranges) for k in keys]
        ints = keys[:500]
        assert subranges_of(ints, ranges).tolist() == [subrange_of(k, ranges) for k in ints]
    assert subranges_of([], 8).tolist() == []
