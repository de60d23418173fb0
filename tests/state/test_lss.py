"""Tests for the hash index and the hybrid-log store."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import StateError
from repro.state.crdt import AppendLogCrdt, AvgCrdt, SumCrdt
from repro.state.hash_index import HashIndex
from repro.state.lss import NO_WINDOW, LogStructuredStore


def log_rows(store):
    """Log positions, live or invalidated: the layout these tests check."""
    return len(store._keys)


class TestHashIndex:
    def test_put_get(self):
        index = HashIndex()
        index.put("a", 0)
        assert index.get("a") == 0
        assert index.get("b") is None
        assert "a" in index
        assert len(index) == 1

    def test_move(self):
        index = HashIndex()
        index.put("a", 0)
        index.put("a", 5)
        assert index.get("a") == 5
        assert index.inserts == 1

    def test_remove_absent_raises(self):
        with pytest.raises(StateError):
            HashIndex().remove("x")

    def test_negative_address_rejected(self):
        with pytest.raises(StateError):
            HashIndex().put("a", -1)

    def test_size_bytes_scales(self):
        index = HashIndex()
        for i in range(10):
            index.put(i, i)
        assert index.size_bytes == 160


class TestLogStructuredStore:
    def test_rmw_from_zero(self):
        store = LogStructuredStore(SumCrdt())
        store.update("k", 5)
        store.update("k", 3)
        assert store.get("k") == 8
        assert len(store) == 1

    def test_absorb_merges_partials(self):
        store = LogStructuredStore(SumCrdt())
        store.absorb("k", 10)
        store.absorb("k", 7)
        assert store.get("k") == 17

    def test_in_place_update_in_mutable_region(self):
        store = LogStructuredStore(SumCrdt())
        store.update("k", 1)
        store.update("k", 1)
        assert log_rows(store) == 1  # updated in place, no new version

    def test_copy_on_write_below_boundary(self):
        store = LogStructuredStore(SumCrdt())
        store.update("k", 1)
        store.mark_readonly()
        store.update("k", 2)
        assert store.get("k") == 3
        assert log_rows(store) == 2  # a new version was appended

    def test_remove_returns_payload(self):
        store = LogStructuredStore(SumCrdt())
        store.update("k", 4)
        assert store.remove("k") == 4
        assert store.get("k") is None
        with pytest.raises(StateError):
            store.remove("k")

    def test_replace(self):
        store = LogStructuredStore(SumCrdt())
        store.replace("k", 42)
        assert store.get("k") == 42
        store.replace("k", 43)
        assert store.get("k") == 43
        store.mark_readonly()
        store.replace("k", 44)
        assert store.get("k") == 44

    def test_scan_live_only(self):
        store = LogStructuredStore(SumCrdt())
        store.update("a", 1)
        store.update("b", 2)
        store.remove("a")
        assert dict(store.scan()) == {"b": 2}

    def test_window_items(self):
        store = LogStructuredStore(SumCrdt())
        store.update((1, "a"), 1)
        store.update((2, "a"), 1)
        store.update((1, "b"), 1)
        store.update("bare", 1)
        assert store.window_items(1) == [((1, "a"), 1), ((1, "b"), 1)]
        assert store.window_items(3) == []
        # Copy-on-write moves (1, "a") behind (1, "b"): log order follows.
        store.mark_readonly()
        store.update((1, "a"), 1)
        assert store.window_items(1) == [((1, "b"), 1), ((1, "a"), 2)]
        assert store.pop_window_columns(1) == ([(1, "b"), (1, "a")], [1, 2])
        assert store.window_items(1) == []
        assert dict(store.scan()) == {(2, "a"): 1, "bare": 1}

    def test_delta_contains_only_changes_since_boundary(self):
        store = LogStructuredStore(SumCrdt())
        store.update("old", 1)
        store.mark_readonly()
        store.update("new", 2)
        assert store.delta_pairs() == [("new", 2)]

    def test_delta_includes_cow_of_old_keys(self):
        store = LogStructuredStore(SumCrdt())
        store.update("k", 1)
        store.mark_readonly()
        store.update("k", 2)
        assert store.delta_pairs() == [("k", 3)]

    def test_ship_delta_resets_fragment(self):
        """After shipping, RMWs restart from zero (paper Sec. 7.2.2)."""
        store = LogStructuredStore(SumCrdt())
        store.update("k", 5)
        store.update("k", 2)
        keys, windows, payloads, nbytes = store.ship_delta()
        assert keys == ["k"] and windows.tolist() == [NO_WINDOW] and payloads.tolist() == [7]
        assert nbytes > 0
        assert store.get("k") is None
        store.update("k", 1)
        assert store.get("k") == 1

    def test_ship_delta_empty(self):
        store = LogStructuredStore(SumCrdt())
        keys, windows, payloads, nbytes = store.ship_delta()
        assert keys == [] and len(windows) == 0 and len(payloads) == 0
        assert nbytes == 0

    def test_append_log_absorb_miss_stores_the_partial_itself(self):
        """A miss stores the partial object as it is (merging it into the
        zero ``()`` copies nothing); a hit builds a new tuple and leaves
        the payload it replaced unchanged."""
        store = LogStructuredStore(AppendLogCrdt())
        left = ((0, ("l",)),)
        store.absorb_columns([(0, 1)], None, [left])
        assert store.get((0, 1)) is left
        single = ((0, ("s",)),)
        store.absorb((0, 2), single)
        assert store.get((0, 2)) is single
        right = ((1, ("r",)),)
        store.absorb_columns([(0, 1)], None, [right])
        merged = store.get((0, 1))
        assert merged == ((0, ("l",)), (1, ("r",))) and type(merged) is tuple
        assert left == ((0, ("l",)),) and right == ((1, ("r",)),)
        # Two entries (header + key) and their payloads of 2 and 1 records.
        assert store.size_bytes == 2 * 16 + (8 + 2 * 32) + (8 + 32) + store.index.size_bytes

    def test_append_log_absorb_merges_only_present_rows(self, monkeypatch):
        """A batch absorb into an append log calls ``merge`` for present
        rows only (in-place hits and read-only copy-on-writes); a miss
        stores its partial object itself.  Avg keeps merging every row:
        its zero turns a ``-0.0`` sum into ``0.0``."""
        calls = []

        def counted(merge):
            def wrapper(self, a, b):
                calls.append((a, b))
                return merge(self, a, b)
            return wrapper

        monkeypatch.setattr(AppendLogCrdt, "merge", counted(AppendLogCrdt.merge))
        monkeypatch.setattr(AvgCrdt, "merge", counted(AvgCrdt.merge))
        store = LogStructuredStore(AppendLogCrdt())
        first = [((0, (k,)),) for k in range(3)]
        store.absorb_columns([(0, k) for k in range(3)], None, first)
        assert calls == []
        assert all(store.get((0, k)) is first[k] for k in range(3))
        hit, miss = ((1, ("r",)),), ((1, ("s",)),)
        store.absorb_columns([(0, 1), (0, 5)], None, [hit, miss])
        assert calls == [(first[1], hit)]
        assert store.get((0, 1)) == first[1] + hit and store.get((0, 5)) is miss
        store.mark_readonly()
        store.absorb_columns([(0, 2), (0, 6)], None, [hit, miss])  # copy-on-write + miss
        assert calls[1:] == [(first[2], hit)]
        assert store.get((0, 2)) == first[2] + hit and store.get((0, 6)) is miss
        assert store.size_bytes == 5 * 16 + 3 * (8 + 32) + 2 * (8 + 64) + store.index.size_bytes

        calls.clear()
        avg = LogStructuredStore(AvgCrdt())
        avg.absorb_columns(["a", "b"], None, [(-0.0, 1), (2.0, 1)])
        assert len(calls) == 2
        assert math.copysign(1.0, avg.get("a")[0]) == 1.0

    @pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "repeats"])
    def test_absorb_runs_equals_row_by_row_absorb(self, repeats):
        """With or without a repeated key (a split oversized partial),
        ``absorb_runs`` leaves what ``absorb`` row by row leaves: the same
        live pairs, bytes and log order, hits and copy-on-writes included."""
        keys = [(0, 4), (0, 1), (1, 2), (0, 3)]
        if repeats:
            keys += [(0, 1), (0, 3), (0, 1)]
        partials = [((i, (f"r{i}",)),) for i in range(len(keys))]
        runs, rows = LogStructuredStore(AppendLogCrdt()), LogStructuredStore(AppendLogCrdt())
        for store in (runs, rows):
            store.absorb((0, 3), ((-1, ("old",)),))
            store.mark_readonly()
            store.absorb((0, 4), ((-2, ("new",)),))
        runs.absorb_runs(keys, None, partials)
        for key, partial in zip(keys, partials):
            rows.absorb(key, partial)
        assert list(runs.scan()) == list(rows.scan())
        assert runs.size_bytes == rows.size_bytes
        assert runs._keys == rows._keys

    def test_delta_bytes_append_crdt_scales_with_records(self):
        store = LogStructuredStore(AppendLogCrdt(record_bytes=100))
        store.update("k", "r1")
        store.update("k", "r2")
        keys, _windows, payloads, nbytes = store.ship_delta()
        assert keys == ["k"] and payloads.tolist() == [("r1", "r2")]
        # One entry (header + key) and a payload of 2 records.
        assert nbytes == 8 + 8 + (8 + 200)

    def test_compaction_preserves_content(self):
        store = LogStructuredStore(SumCrdt(), compact_threshold=0.5)
        for i in range(20):
            store.update(i, 1)
        for i in range(15):
            store.remove(i)
        assert store.compactions >= 1
        assert dict(store.scan()) == {i: 1 for i in range(15, 20)}
        # Post-compaction updates still work.
        store.update(15, 1)
        assert store.get(15) == 2

    def test_compaction_preserves_boundary_semantics(self):
        store = LogStructuredStore(SumCrdt(), compact_threshold=0.4)
        store.update("frozen", 1)
        store.mark_readonly()
        for i in range(10):
            store.update(i, 1)
        for i in range(10):
            store.remove(i)
        # "frozen" is below the boundary: an update must copy-on-write.
        length_before = log_rows(store)
        store.update("frozen", 1)
        assert store.get("frozen") == 2
        assert log_rows(store) == length_before + 1

    def test_compaction_counts_no_index_inserts(self):
        """Compaction re-points keys that were indexed already: ``inserts``
        stays the number of key arrivals, ``lookups`` the number of probes."""
        store = LogStructuredStore(SumCrdt(), compact_threshold=0.5)
        for i in range(10):
            store.update(i, 1)
        store.absorb_many([((0, i), 1.0) for i in range(4)])
        lookups = store.index.lookups
        for i in range(6):
            store.remove(i)
        store.pop_window_columns(0)
        assert store.compactions >= 1
        assert store.index.inserts == 14
        assert store.index.lookups == lookups + 6
        assert dict(store.scan()) == {6: 1, 7: 1, 8: 1, 9: 1}

    def test_size_bytes(self):
        store = LogStructuredStore(SumCrdt())
        assert store.size_bytes == 0
        store.update("k", 1)
        assert store.size_bytes > 0

    def test_bad_compact_threshold(self):
        with pytest.raises(StateError):
            LogStructuredStore(SumCrdt(), compact_threshold=0.0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(-100, 100)),
            min_size=1,
            max_size=100,
        ),
        st.lists(st.integers(0, 99), max_size=5),
    )
    def test_property_store_matches_dict_with_boundaries(self, updates, boundary_points):
        """Interleaving mark_readonly anywhere never changes visible state."""
        store = LogStructuredStore(SumCrdt())
        reference: dict[int, float] = {}
        boundary_set = set(boundary_points)
        for i, (key, value) in enumerate(updates):
            if i in boundary_set:
                store.mark_readonly()
            store.update(key, value)
            reference[key] = reference.get(key, 0.0) + value
        for key, expected in reference.items():
            assert store.get(key) == pytest.approx(expected)
