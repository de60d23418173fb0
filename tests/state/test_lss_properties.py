"""Property tests: hybrid-log store under randomized op sequences.

Hypothesis drives arbitrary interleavings of updates, absorbs, removals,
boundary advances, and delta shipments against a plain-dict reference
model; the store must agree at every observation point.  A seeded walk
(``REPRO_TEST_SEED``) over *every* mutation holds the store's incremental
bookkeeping — the O(1) ``size_bytes`` and the window index — to their
brute-force definitions after each step.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.state.crdt import AppendLogCrdt, SumCrdt
from repro.state.lss import ENTRY_HEADER_BYTES, KEY_BYTES, LogStructuredStore
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
            pairs, nbytes = store.ship_delta()
            assert nbytes >= 0
            for k, payload in pairs:
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
            pairs, _nbytes = helper.ship_delta()
            for k, payload in pairs:
                leader.absorb(k, payload)
        helper.update(key, record)
        expected.setdefault(key, []).append(record)
    pairs, _nbytes = helper.ship_delta()
    for k, payload in pairs:
        leader.absorb(k, payload)
    merged = {k: sorted(v) for k, v in leader.scan()}
    assert merged == {k: sorted(v) for k, v in expected.items()}


# -- derived bookkeeping: O(1) size and the window index ------------------
#
# ``size_bytes`` and ``window_items`` are maintained incrementally; the
# brute-force definitions they replace live here, and every mutation the
# store offers must leave the two in agreement.


def brute_size_bytes(store):
    live = sum(
        ENTRY_HEADER_BYTES + KEY_BYTES + store.crdt.value_bytes(payload)
        for _key, payload in store.scan()
    )
    return live + store.index.size_bytes


def brute_window_items(store, window_id):
    return [
        (key, payload)
        for key, payload in store.scan()
        if isinstance(key, tuple) and key[0] == window_id
    ]


WINDOWS = range(4)


def check_bookkeeping(store, step):
    assert store.size_bytes == brute_size_bytes(store), step
    for window_id in (*WINDOWS, "absent"):
        assert store.window_items(window_id) == brute_window_items(store, window_id), step


@pytest.mark.parametrize(
    "crdt, one, many",
    [
        # (strategy, a single stream value, a pre-aggregated partial)
        (SumCrdt(), lambda rng: int(rng.integers(-50, 50)), lambda rng: int(rng.integers(-50, 50))),
        (
            AppendLogCrdt(record_bytes=24),
            lambda rng: (int(rng.integers(0, 999)),),
            lambda rng: [(int(v),) for v in rng.integers(0, 999, size=int(rng.integers(0, 4)))],
        ),
    ],
    ids=["sum", "append-log"],
)
def test_size_and_window_index_track_brute_force(rng, crdt, one, many):
    backend = SlashStateBackend(0, PartitionDirectory(1))
    store = backend.handle("op", crdt).store_for(0)

    def key():
        group = int(rng.integers(0, 6))
        # A third of the keys are bare (session-join style): they must
        # never show up in any window.
        return group if rng.random() < 0.33 else (int(rng.integers(0, len(WINDOWS))), group)

    def live_key():
        live = [k for k, _payload in store.scan()]
        return live[int(rng.integers(0, len(live)))] if live else None

    ops = ["update", "absorb", "absorb_many", "replace", "remove", "pop_window",
           "mark_readonly", "ship_delta", "compact", "snapshot_restore"]
    weights = np.array([6, 6, 4, 2, 3, 1, 2, 1, 1, 1], dtype=float)
    check_bookkeeping(store, "empty")
    for step in range(400):
        op = ops[int(rng.choice(len(ops), p=weights / weights.sum()))]
        if op == "update":
            store.update(key(), one(rng))
        elif op == "absorb":
            store.absorb(key(), many(rng))
        elif op == "absorb_many":
            # Repeats within one batch exercise insert-then-merge.
            store.absorb_many([(key(), many(rng)) for _ in range(int(rng.integers(0, 8)))])
        elif op == "replace":
            store.replace(key(), crdt.merge(crdt.zero(), many(rng)))
        elif op == "remove":
            victim = live_key()
            if victim is not None:
                store.remove(victim)
        elif op == "pop_window":
            window_id = int(rng.integers(0, len(WINDOWS)))
            expected = brute_window_items(store, window_id)
            assert store.pop_window(window_id) == expected
        elif op == "mark_readonly":
            store.mark_readonly()
        elif op == "ship_delta":
            expected = store.delta_pairs()
            pairs, _nbytes = store.ship_delta()
            assert pairs == expected
        elif op == "compact":
            # Forced: threshold 0 compacts whatever the invalid share is.
            threshold, store.compact_threshold = store.compact_threshold, 0.0
            store._maybe_compact()
            store.compact_threshold = threshold
        elif op == "snapshot_restore":
            before = list(store.scan())
            backend.restore(backend.snapshot())
            assert sorted(store.scan(), key=repr) == sorted(before, key=repr)
        check_bookkeeping(store, (step, op))
    assert store.compactions > 0
