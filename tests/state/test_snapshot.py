"""Tests for epoch-aligned SSB snapshots (extension)."""

import pytest

from repro.common.errors import StateError
from repro.state.crdt import AppendLogCrdt, SumCrdt
from repro.state.partition import PartitionDirectory
from repro.state.ssb import SlashStateBackend


def make_backend(n=2, executor=0, crdt=None):
    backend = SlashStateBackend(executor, PartitionDirectory(n))
    handle = backend.handle("agg", crdt or SumCrdt())
    return backend, handle


def test_snapshot_roundtrip():
    backend, handle = make_backend()
    handle.update((1, "a"), 10)
    handle.update((1, "b"), 20)
    backend.observe_watermark(123.0)
    snap = backend.snapshot()

    fresh_backend, fresh_handle = make_backend()
    fresh_backend.restore(snap)
    assert fresh_handle.get_local((1, "a")) == 10
    assert fresh_handle.get_local((1, "b")) == 20
    assert fresh_backend.watermarks.watermark == 123.0
    assert fresh_backend.clock.entry(0) == 123.0


def test_snapshot_is_isolated_from_later_mutation():
    backend, handle = make_backend()
    handle.update("k", 5)
    snap = backend.snapshot()
    handle.update("k", 100)  # post-snapshot mutation

    fresh_backend, fresh_handle = make_backend()
    fresh_backend.restore(snap)
    assert fresh_handle.get_local("k") == 5


def test_snapshot_deepcopies_holistic_payloads():
    backend, handle = make_backend(crdt=AppendLogCrdt())
    handle.update("k", "r1")
    snap = backend.snapshot()
    handle.update("k", "r2")  # appends to the SAME list object in the store

    fresh_backend, fresh_handle = make_backend(crdt=AppendLogCrdt())
    fresh_backend.restore(snap)
    assert fresh_handle.get_local("k") == ["r1"]


def test_restore_replaces_existing_state():
    backend, handle = make_backend()
    handle.update("old", 1)
    snap = backend.snapshot()
    fresh_backend, fresh_handle = make_backend()
    fresh_handle.update("junk", 999)
    fresh_backend.restore(snap)
    assert fresh_handle.get_local("junk") is None
    assert fresh_handle.get_local("old") == 1


def test_restore_wrong_executor_rejected():
    backend, _ = make_backend(executor=0)
    snap = backend.snapshot()
    other, _ = make_backend(executor=1)
    with pytest.raises(StateError, match="snapshot of executor"):
        other.restore(snap)


def test_restore_unregistered_operator_rejected():
    backend, _ = make_backend()
    snap = backend.snapshot()
    fresh = SlashStateBackend(0, PartitionDirectory(2))
    with pytest.raises(StateError, match="unregistered operator"):
        fresh.restore(snap)


def test_snapshot_covers_all_partitions():
    backend, handle = make_backend(n=4)
    # Spread keys over partitions.
    for key in range(40):
        handle.update((0, key), 1)
    snap = backend.snapshot()
    total = sum(len(pairs) for pairs in snap["operators"]["agg"].values())
    assert total == 40


def test_snapshot_itself_is_unchanged_by_later_folds():
    """The snapshot shares immutable scalar payloads and copies append
    logs (``Crdt.copy_payload``): neither an absorb into a scalar key nor
    an in-place update of an append-log key may reach it."""
    backend = SlashStateBackend(0, PartitionDirectory(1))
    scalar = backend.handle("agg", SumCrdt())
    holistic = backend.handle("join", AppendLogCrdt())
    scalar.absorb("k", 5)
    holistic.update("k", "r1")
    snap = backend.snapshot()
    scalar.absorb("k", 100)
    holistic.update("k", "r2")  # extends the list the store holds
    assert holistic.get_local("k") == ["r1", "r2"]
    assert snap["operators"] == {"agg": {0: [("k", 5)]}, "join": {0: [("k", ["r1"])]}}
