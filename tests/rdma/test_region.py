"""Unit tests for RDMA memory regions."""

import pytest

from repro.common.errors import ProtocolError
from repro.rdma.region import MemoryRegion


def test_store_load_roundtrip():
    region = MemoryRegion(0, 1024)
    region.store(64, {"k": 1}, 128)
    payload, nbytes = region.load(64)
    assert payload == {"k": 1}
    assert nbytes == 128


def test_poll_reflects_occupancy():
    region = MemoryRegion(0, 1024)
    assert not region.poll(0)
    region.store(0, "x", 10)
    assert region.poll(0)
    region.clear(0)
    assert not region.poll(0)


def test_load_empty_offset_raises():
    region = MemoryRegion(0, 1024)
    with pytest.raises(ProtocolError, match="empty offset"):
        region.load(0)


def test_clear_empty_offset_raises():
    region = MemoryRegion(0, 1024)
    with pytest.raises(ProtocolError):
        region.clear(8)


def test_out_of_bounds_rejected():
    region = MemoryRegion(0, 1024)
    with pytest.raises(ProtocolError, match="out of bounds"):
        region.store(1000, "x", 100)
    with pytest.raises(ProtocolError):
        region.store(-8, "x", 8)


def test_zero_size_region_rejected():
    with pytest.raises(ProtocolError):
        MemoryRegion(0, 0)


def test_remote_store_requires_rkey():
    region = MemoryRegion(0, 1024)
    with pytest.raises(ProtocolError, match="bad rkey"):
        region.remote_store(region.rkey + 1, 0, "x", 8)
    region.remote_store(region.rkey, 0, "x", 8)
    assert region.load(0) == ("x", 8)


def test_remote_store_refuses_overwrite():
    """Flow-control invariant: an unconsumed buffer must never be clobbered."""
    region = MemoryRegion(0, 1024)
    region.remote_store(region.rkey, 0, "first", 8)
    with pytest.raises(ProtocolError, match="flow control"):
        region.remote_store(region.rkey, 0, "second", 8)


def test_rkeys_are_unique():
    assert MemoryRegion(0, 8).rkey != MemoryRegion(0, 8).rkey


def test_occupied_offsets_sorted():
    region = MemoryRegion(0, 1024)
    for offset in (512, 0, 256):
        region.store(offset, "x", 8)
    assert region.occupied_offsets() == [0, 256, 512]
