"""Property tests: hybrid-log store under randomized op sequences.

Hypothesis drives arbitrary interleavings of updates, absorbs, removals,
boundary advances, and delta shipments against a plain-dict reference
model; the store must agree at every observation point.  A seeded walk
(``REPRO_TEST_SEED``) over *every* mutation and every CRDT holds the
columnar store to a plain list-of-entries hybrid log: log order, payload
bits and types, ship and pop results, the O(1) ``size_bytes`` and the
window reads, after each step.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.state.crdt import AppendLogCrdt, AvgCrdt, CountCrdt, MaxCrdt, MinCrdt, SumCrdt
from repro.state.hash_index import INDEX_ENTRY_BYTES
from repro.state.lss import ENTRY_HEADER_BYTES, KEY_BYTES, LogStructuredStore, window_column
from repro.state.partition import PartitionDirectory
from repro.state.ssb import SlashStateBackend

ops = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 7), st.integers(-50, 50)),
        st.tuples(st.just("absorb"), st.integers(0, 7), st.integers(-50, 50)),
        st.tuples(st.just("remove"), st.integers(0, 7), st.none()),
        st.tuples(st.just("mark_readonly"), st.none(), st.none()),
        st.tuples(st.just("ship"), st.none(), st.none()),
    ),
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(sequence=ops)
def test_property_store_tracks_model_through_ships(sequence):
    """The store's visible content equals a dict model where shipping
    moves the whole current content into a 'shipped' accumulator."""
    store = LogStructuredStore(SumCrdt(), compact_threshold=0.4)
    model: dict[int, float] = {}
    shipped: dict[int, float] = {}

    for op, key, value in sequence:
        if op == "update":
            store.update(key, value)
            model[key] = model.get(key, 0.0) + value
        elif op == "absorb":
            store.absorb(key, value)
            model[key] = model.get(key, 0.0) + value
        elif op == "remove":
            if key in model:
                assert store.remove(key) == pytest.approx(model.pop(key))
            else:
                assert store.get(key) is None
        elif op == "mark_readonly":
            store.mark_readonly()
        elif op == "ship":
            keys, _windows, payloads, nbytes = store.ship_delta()
            assert nbytes >= 0
            for k, payload in zip(keys, payloads.tolist()):
                shipped[k] = shipped.get(k, 0.0) + payload
                # Shipped pairs leave the store entirely.
                model.pop(k, None)

        # Invariant: visible content equals the model at every step.
        assert dict(store.scan()) == pytest.approx(model)

    # The resident content equals the model's surviving updates.
    store_total = sum(payload for _k, payload in store.scan())
    assert store_total == pytest.approx(sum(model.values()))


@settings(max_examples=40, deadline=None)
@given(
    appends=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 999)), max_size=60
    ),
    ship_points=st.sets(st.integers(0, 59), max_size=4),
)
def test_property_append_log_conservation(appends, ship_points):
    """For holistic payloads, shipping + merging loses no record and
    duplicates none (the multiset of records is conserved)."""
    crdt = AppendLogCrdt()
    helper = LogStructuredStore(crdt, compact_threshold=0.5)
    leader = LogStructuredStore(crdt, compact_threshold=0.5)
    expected: dict[int, list[int]] = {}
    for i, (key, record) in enumerate(appends):
        if i in ship_points:
            keys, _windows, payloads, _nbytes = helper.ship_delta()
            for k, payload in zip(keys, payloads):
                leader.absorb(k, payload)
        helper.update(key, record)
        expected.setdefault(key, []).append(record)
    keys, _windows, payloads, _nbytes = helper.ship_delta()
    for k, payload in zip(keys, payloads):
        leader.absorb(k, payload)
    merged = {k: sorted(v) for k, v in leader.scan()}
    assert merged == {k: sorted(v) for k, v in expected.items()}


# -- the columnar log against a plain hybrid log --------------------------
#
# ``ReferenceLog`` is the hybrid log written the obvious way: a list of
# ``[key, payload, valid]`` entries and one scalar CRDT call per pair.  The
# columnar store must reproduce it exactly — the same pairs, in the same
# log order, with bit-identical payloads of the same plain Python types —
# and its O(1) ``size_bytes`` and window reads must equal their brute-force
# definitions over that reference after every kind of mutation.


class ReferenceLog:
    """The semantics ``LogStructuredStore`` implements, one entry at a time."""

    def __init__(self, crdt):
        self.crdt = crdt
        self.entries = []
        self.index = {}
        self.boundary = 0

    def _write(self, key, payload):
        address = self.index.get(key)
        if address is not None and address >= self.boundary:
            self.entries[address][1] = payload
            return
        if address is not None:
            self.entries[address][2] = False  # copy-on-write
        self.index[key] = len(self.entries)
        self.entries.append([key, payload, True])

    def _rmw(self, key, value, combine):
        address = self.index.get(key)
        current = self.crdt.zero() if address is None else self.entries[address][1]
        self._write(key, combine(current, value))

    def update(self, key, value):
        self._rmw(key, value, self.crdt.update)

    def absorb(self, key, partial):
        self._rmw(key, partial, self.crdt.merge)

    def replace(self, key, payload):
        self._write(key, payload)

    def remove(self, key):
        entry = self.entries[self.index.pop(key)]
        entry[2] = False
        return entry[1]

    def mark_readonly(self):
        self.boundary = len(self.entries)

    def scan(self):
        return [(key, payload) for key, payload, valid in self.entries if valid]

    def window_items(self, window_id):
        return [
            (key, payload) for key, payload in self.scan()
            if isinstance(key, tuple) and key[0] == window_id
        ]

    def pop_window_columns(self, window_id):
        items = self.window_items(window_id)
        for key, _payload in items:
            self.remove(key)
        return [key for key, _payload in items], [payload for _key, payload in items]

    def delta_pairs(self):
        return [
            (key, payload) for key, payload, valid in self.entries[self.boundary:] if valid
        ]

    def ship_delta(self):
        pairs = self.delta_pairs()
        for key, _payload in pairs:
            del self.index[key]
        del self.entries[self.boundary:]
        nbytes = sum(
            ENTRY_HEADER_BYTES + KEY_BYTES + self.crdt.value_bytes(payload)
            for _key, payload in pairs
        )
        return pairs, nbytes

    def size_bytes(self):
        return sum(
            ENTRY_HEADER_BYTES + KEY_BYTES + self.crdt.value_bytes(payload)
            for _key, payload in self.scan()
        ) + len(self.index) * INDEX_ENTRY_BYTES


WINDOWS = range(4)
# Signed zeros, infinities, NaN and ordinary values: the vectorised
# merges must match the scalar ones bit for bit on all of them (repr tells
# -0.0 from 0.0 and an int from a float).
SPECIALS = (-0.0, 0.0, float("inf"), float("-inf"), float("nan"), 2.5, -2.5)


def _number(rng):
    if rng.random() < 0.3:
        return SPECIALS[int(rng.integers(len(SPECIALS)))]
    return round(float(rng.uniform(-50.0, 50.0)), 2)


def _record(rng):
    return (int(rng.integers(0, 999)),)


CASES = {
    # name: (strategy, a single stream value, a pre-aggregated partial)
    "sum": (SumCrdt(), _number, _number),
    "count": (CountCrdt(), lambda rng: 1, lambda rng: int(rng.integers(1, 5))),
    "min": (MinCrdt(), _number, _number),
    "max": (MaxCrdt(), _number, _number),
    "avg": (AvgCrdt(), _number, lambda rng: (_number(rng), int(rng.integers(1, 4)))),
    "append-log": (
        AppendLogCrdt(record_bytes=24),
        _record,
        lambda rng: tuple(_record(rng) for _ in range(int(rng.integers(0, 4)))),
    ),
}
PLAIN = (int, float, tuple)


def check_against_reference(store, reference, step):
    scanned = list(store.scan())
    assert repr(scanned) == repr(reference.scan()), step
    assert all(type(payload) in PLAIN for _key, payload in scanned), step
    assert store.size_bytes == reference.size_bytes(), step
    for window_id in (*WINDOWS, "absent"):
        assert repr(store.window_items(window_id)) == repr(
            reference.window_items(window_id)
        ), step


# ``inf + -inf`` is NaN in both merges; only numpy's says so out loud.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("case", list(CASES))
def test_size_and_window_index_track_brute_force(rng, case):
    crdt, one, many = CASES[case]
    backend = SlashStateBackend(0, PartitionDirectory(1))
    store = backend.handle("op", crdt).store_for(0)
    reference = ReferenceLog(crdt)

    def key():
        group = int(rng.integers(0, 6))
        # A third of the keys are bare (session-join style): they must
        # never show up in any window.
        return group if rng.random() < 0.33 else (int(rng.integers(0, len(WINDOWS))), group)

    def live_key():
        live = [k for k, _payload in store.scan()]
        return live[int(rng.integers(0, len(live)))] if live else None

    ops = ["update", "absorb", "absorb_many", "replace", "remove", "pop_window_columns",
           "mark_readonly", "ship_delta", "compact"]
    weights = np.array([5, 5, 6, 2, 3, 1, 2, 1, 1], dtype=float)
    check_against_reference(store, reference, "empty")
    for step in range(400):
        op = ops[int(rng.choice(len(ops), p=weights / weights.sum()))]
        if op == "update":
            target, value = key(), one(rng)
            store.update(target, value)
            reference.update(target, value)
        elif op == "absorb":
            target, partial = key(), many(rng)
            store.absorb(target, partial)
            reference.absorb(target, partial)
        elif op == "absorb_many":
            # One batch mixing misses, in-place hits and read-only
            # copy-on-writes; a repeated key splits it into runs.
            pairs = [(key(), many(rng)) for _ in range(int(rng.integers(0, 12)))]
            store.absorb_many(pairs)
            for target, partial in pairs:
                reference.absorb(target, partial)
        elif op == "replace":
            target, payload = key(), crdt.merge(crdt.zero(), many(rng))
            store.replace(target, payload)
            reference.replace(target, payload)
        elif op == "remove":
            victim = live_key()
            if victim is not None:
                assert repr(store.remove(victim)) == repr(reference.remove(victim))
        elif op == "pop_window_columns":
            window_id = int(rng.integers(0, len(WINDOWS)))
            assert repr(store.pop_window_columns(window_id)) == repr(
                reference.pop_window_columns(window_id)
            )
        elif op == "mark_readonly":
            store.mark_readonly()
            reference.mark_readonly()
        elif op == "ship_delta":
            assert repr(store.delta_pairs()) == repr(reference.delta_pairs())
            keys, windows, payloads, nbytes = store.ship_delta()
            expected, expected_bytes = reference.ship_delta()
            pairs = list(zip(keys, payloads.tolist()))
            assert repr(pairs) == repr(expected) and nbytes == expected_bytes
            assert windows.tolist() == window_column(keys).tolist()
            assert payloads.dtype == store._payload.dtype
            assert all(type(payload) in PLAIN for _key, payload in pairs)
        elif op == "compact":
            # Forced: threshold 0 compacts whatever the invalid share is.
            threshold, store.compact_threshold = store.compact_threshold, 0.0
            store._maybe_compact()
            store.compact_threshold = threshold
        check_against_reference(store, reference, (step, op))
    assert store.compactions > 0
