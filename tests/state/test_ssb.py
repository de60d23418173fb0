"""Tests for the Slash State Backend facade.

The central property here is P2: distributing updates across executors,
shipping epoch deltas to leaders, and merging must reproduce exactly the
state a sequential execution would have built.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import StateError
from repro.state.crdt import AppendLogCrdt, CountCrdt, SumCrdt, fold
from repro.state.partition import PartitionDirectory
from repro.state.ssb import SlashStateBackend


def make_backends(n):
    directory = PartitionDirectory(n)
    return directory, [SlashStateBackend(e, directory) for e in range(n)]


def sync_epoch(handles):
    """Run one full epoch synchronisation across all executors."""
    for handle in handles:
        for delta in handle.collect_deltas():
            leader = delta.partition  # identity leadership
            handles[leader].merge_delta(delta)


def merged_view(handles, crdt):
    """Union of all leaders' led items, fully merged."""
    view = {}
    for handle in handles:
        for key, payload in zip(*handle.scan_columns()):
            if key in view:
                view[key] = crdt.merge(view[key], payload)
            else:
                view[key] = payload
    return view


class TestHandleBasics:
    def test_update_routes_to_partition_of_group_key(self):
        directory, backends = make_backends(4)
        handle = backends[0].handle("agg", SumCrdt())
        handle.update((7, "group"), 1.0)
        partition = directory.partitioner("group")
        assert handle.store_for(partition).get((7, "group")) == 1.0

    def test_bare_key_and_tuple_key_share_partition(self):
        _, backends = make_backends(4)
        handle = backends[0].handle("agg", SumCrdt())
        assert handle.partition_of("g") == handle.partition_of((3, "g"))

    def test_handle_reuse_and_crdt_conflict(self):
        _, backends = make_backends(2)
        backend = backends[0]
        first = backend.handle("agg", SumCrdt())
        assert backend.handle("agg", SumCrdt()) is first
        with pytest.raises(StateError, match="different CRDT"):
            backend.handle("agg", CountCrdt())

    def test_invalid_executor_id(self):
        directory = PartitionDirectory(2)
        with pytest.raises(StateError):
            SlashStateBackend(5, directory)

    def test_observe_watermark_advances_clock(self):
        _, backends = make_backends(2)
        backends[0].observe_watermark(123.0)
        assert backends[0].watermarks.watermark == 123.0
        assert backends[0].clock.entry(0) == 123.0


class TestEpochSync:
    def test_deltas_cover_all_remote_partitions(self):
        _, backends = make_backends(4)
        handle = backends[1].handle("agg", SumCrdt())
        deltas = handle.collect_deltas()
        assert sorted(d.partition for d in deltas) == [0, 2, 3]
        assert all(d.from_executor == 1 for d in deltas)
        assert all(d.epoch == 0 for d in deltas)
        # Empty deltas still carry the header bytes (watermark piggyback).
        assert all(d.nbytes >= 32 for d in deltas)

    def test_epoch_numbers_increment_per_partition(self):
        _, backends = make_backends(2)
        handle = backends[0].handle("agg", SumCrdt())
        first = handle.collect_deltas()
        second = handle.collect_deltas()
        assert first[0].epoch == 0
        assert second[0].epoch == 1

    def test_merge_delta_validates_leadership(self):
        _, backends = make_backends(3)
        helper = backends[1].handle("agg", SumCrdt())
        deltas = helper.collect_deltas()
        wrong_leader = backends[2].handle("agg", SumCrdt())
        bad = next(d for d in deltas if d.partition == 0)
        with pytest.raises(StateError, match="not the leader"):
            wrong_leader.merge_delta(bad)

    def test_merge_delta_validates_operator(self):
        _, backends = make_backends(2)
        helper = backends[1].handle("agg", SumCrdt())
        (delta,) = helper.collect_deltas()
        other = backends[0].handle("other", SumCrdt())
        with pytest.raises(StateError, match="operator"):
            other.merge_delta(delta)

    def test_watermark_piggybacks_to_leader_clock(self):
        _, backends = make_backends(2)
        backends[1].observe_watermark(55.0)
        helper = backends[1].handle("agg", SumCrdt())
        leader = backends[0].handle("agg", SumCrdt())
        for delta in helper.collect_deltas():
            leader.merge_delta(delta)
        assert backends[0].clock.entry(1) == 55.0

    def test_two_executor_sum_converges(self):
        _, backends = make_backends(2)
        handles = [b.handle("agg", SumCrdt()) for b in backends]
        # Both executors update the same key concurrently.
        handles[0].update("k", 10)
        handles[1].update("k", 32)
        sync_epoch(handles)
        view = merged_view(handles, SumCrdt())
        assert view == {"k": 42}

    def test_multi_epoch_accumulation(self):
        _, backends = make_backends(2)
        handles = [b.handle("agg", SumCrdt()) for b in backends]
        for epoch in range(3):
            handles[0].update("k", 1)
            handles[1].update("k", 2)
            sync_epoch(handles)
        assert merged_view(handles, SumCrdt()) == {"k": 9}

    def test_append_crdt_state_converges(self):
        _, backends = make_backends(2)
        crdt = AppendLogCrdt()
        handles = [b.handle("join", crdt) for b in backends]
        handles[0].update("k", "left-record")
        handles[1].update("k", "right-record")
        sync_epoch(handles)
        view = merged_view(handles, crdt)
        assert type(view["k"]) is tuple
        assert crdt.finish(view["k"]) == ["left-record", "right-record"]


class TestWindowExtraction:
    def test_pop_window_columns_pops_only_that_window(self):
        _, backends = make_backends(1)
        handle = backends[0].handle("agg", SumCrdt())
        handle.update((1, "a"), 1)
        handle.update((1, "b"), 2)
        handle.update((2, "a"), 3)
        assert handle.window_items(1) == [((1, "a"), 1), ((1, "b"), 2)]
        assert handle.pop_window_columns(1) == ([(1, "a"), (1, "b")], [1, 2])
        assert handle.window_items(1) == []
        assert handle.scan_columns() == ([(2, "a")], [3])

    def test_pop_window_columns_distributed(self):
        _, backends = make_backends(2)
        handles = [b.handle("agg", SumCrdt()) for b in backends]
        keys = list(range(20))
        for key in keys:
            handles[0].update((1, key), 1)
            handles[1].update((1, key), 1)
        sync_epoch(handles)
        combined = {}
        for handle in handles:
            state_keys, payloads = handle.pop_window_columns(1)
            combined.update(zip((key for _window, key in state_keys), payloads))
        assert combined == {key: 2 for key in keys}

    def test_replace_and_remove_led(self):
        _, backends = make_backends(1)
        handle = backends[0].handle("agg", SumCrdt())
        handle.update("k", 1)
        handle.replace("k", 100)
        assert handle.get_local("k") == 100
        assert handle.remove("k") == 100

    def test_replace_led_rejects_foreign_keys(self):
        directory, backends = make_backends(2)
        handle = backends[0].handle("agg", SumCrdt())
        foreign = next(k for k in range(100) if directory.partitioner(k) != 0)
        with pytest.raises(StateError, match="not led"):
            handle.replace(foreign, 1)


class TestP2Property:
    @settings(max_examples=30, deadline=None)
    @given(
        updates=st.lists(
            st.tuples(
                st.integers(0, 3),        # executor that sees the record
                st.integers(0, 10),        # group key
                st.integers(-100, 100),    # value
            ),
            min_size=1,
            max_size=200,
        ),
        epoch_points=st.sets(st.integers(0, 199), max_size=6),
    )
    def test_distributed_equals_sequential(self, updates, epoch_points):
        """P2: lazy-merged distributed state == sequential fold, with
        epoch boundaries injected at arbitrary points mid-stream."""
        _, backends = make_backends(4)
        handles = [b.handle("agg", SumCrdt()) for b in backends]
        reference: dict[int, float] = {}
        for i, (executor, key, value) in enumerate(updates):
            if i in epoch_points:
                sync_epoch(handles)
            handles[executor].update(key, value)
            reference[key] = reference.get(key, 0.0) + value
        sync_epoch(handles)
        view = merged_view(handles, SumCrdt())
        assert set(view) == set(reference)
        for key, expected in reference.items():
            assert view[key] == pytest.approx(expected)
