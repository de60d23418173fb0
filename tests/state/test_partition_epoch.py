"""Tests for key partitioning and epoch bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.errors import StateError
from repro.state.epoch import EpochDelta, EpochLedger, EpochManager
from repro.state.partition import KeyPartitioner, PartitionDirectory, stable_hash


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash(42) == stable_hash(42)
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash((1, "a")) == stable_hash((1, "a"))

    def test_distinguishes(self):
        assert stable_hash(1) != stable_hash(2)
        assert stable_hash("a") != stable_hash("b")
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    def test_rejects_unsupported(self):
        with pytest.raises(StateError):
            stable_hash(3.14)

    @given(st.integers(min_value=0, max_value=2 ** 63))
    def test_property_in_64bit_range(self, key):
        assert 0 <= stable_hash(key) < 2 ** 64


class TestKeyPartitioner:
    def test_range(self):
        partitioner = KeyPartitioner(4)
        for key in range(1000):
            assert 0 <= partitioner(key) < 4

    def test_roughly_balanced(self):
        partitioner = KeyPartitioner(4)
        counts = [0] * 4
        for key in range(10000):
            counts[partitioner(key)] += 1
        assert min(counts) > 2000  # within 20% of fair share

    def test_zero_partitions_rejected(self):
        with pytest.raises(StateError):
            KeyPartitioner(0)


class TestPartitionDirectory:
    def test_identity_leadership(self):
        directory = PartitionDirectory(4)
        for partition in range(4):
            assert directory.leader_of_partition(partition) == partition
            assert directory.partitions_led_by(partition) == [partition]
            assert directory.is_leader(partition, partition)
            assert not directory.is_leader(partition, (partition + 1) % 4)

    def test_leader_of_key_consistent_with_partitioner(self):
        directory = PartitionDirectory(8)
        for key in range(100):
            assert directory.leader_of_key(key) == directory.partitioner(key)

    def test_out_of_range_partition(self):
        with pytest.raises(StateError):
            PartitionDirectory(2).leader_of_partition(2)


class TestEpochManager:
    def test_threshold_crossing(self):
        manager = EpochManager(epoch_bytes=100)
        assert not manager.offer(60)
        assert manager.offer(40)  # 60 + 40 reaches the threshold
        assert manager.current_epoch == 1
        assert not manager.offer(99)  # the accumulator restarted at 0

    def test_force_ends_epoch_early(self):
        manager = EpochManager(epoch_bytes=1000)
        manager.offer(10)
        closed = manager.force()
        assert closed == 0
        assert manager.current_epoch == 1
        assert not manager.offer(999)  # the accumulator restarted at 0

    def test_bad_args(self):
        with pytest.raises(StateError):
            EpochManager(epoch_bytes=0)
        with pytest.raises(StateError):
            EpochManager().offer(-1)

    @given(st.lists(st.integers(min_value=1, max_value=50), max_size=100))
    def test_property_epoch_count_matches_bytes(self, chunks):
        manager = EpochManager(epoch_bytes=100)
        boundaries = sum(1 for chunk in chunks if manager.offer(chunk))
        assert boundaries == manager.current_epoch
        assert not manager.offer(0)  # what is left is below the threshold


def make_delta(epoch, partition=1, executor=0, operator="op"):
    return EpochDelta(
        operator_id=operator,
        partition=partition,
        from_executor=executor,
        epoch=epoch,
        keys=[],
        key_windows=np.empty(0, dtype=np.int64),
        payloads=np.empty(0),
        nbytes=32,
        watermark=float(epoch),
    )


class TestEpochLedger:
    def test_dense_sequence_admitted(self):
        ledger = EpochLedger()
        for epoch in range(5):
            ledger.admit(make_delta(epoch))
        assert ledger.last_epoch("op", 1, 0) == 4

    def test_skip_rejected(self):
        ledger = EpochLedger()
        ledger.admit(make_delta(0))
        with pytest.raises(StateError, match="skip"):
            ledger.admit(make_delta(2))

    def test_replay_deduped_not_merged(self):
        ledger = EpochLedger()
        assert ledger.admit(make_delta(0)) is True
        # A re-delivered delta is a duplicate, not corruption: admit
        # reports it stale so the caller skips the merge (exactly-once).
        assert ledger.admit(make_delta(0)) is False
        assert ledger.last_epoch("op", 1, 0) == 0
        # The dense sequence resumes normally after a dedupe.
        assert ledger.admit(make_delta(1)) is True

    def test_out_of_order_redelivery_deduped(self):
        ledger = EpochLedger()
        for epoch in range(3):
            ledger.admit(make_delta(epoch))
        assert ledger.admit(make_delta(1)) is False
        assert ledger.last_epoch("op", 1, 0) == 2

    def test_seed_installs_admission_point(self):
        ledger = EpochLedger()
        ledger.seed("op", 1, 0, 4)
        assert ledger.last_epoch("op", 1, 0) == 4
        assert ledger.admit(make_delta(3)) is False
        assert ledger.admit(make_delta(5)) is True
        # Seeding never moves the frontier backwards.
        ledger.seed("op", 1, 0, 2)
        assert ledger.last_epoch("op", 1, 0) == 5

    def test_streams_tracked_independently(self):
        ledger = EpochLedger()
        ledger.admit(make_delta(0, executor=0))
        ledger.admit(make_delta(0, executor=1))
        ledger.admit(make_delta(0, partition=2, executor=0))
        assert ledger.last_epoch("op", 1, 1) == 0
        assert ledger.last_epoch("op", 9, 9) == -1

    def test_delta_validation(self):
        with pytest.raises(StateError):
            make_delta(-1)
        with pytest.raises(StateError):
            EpochDelta("op", 0, 0, 0, [], np.empty(0, dtype=np.int64), np.empty(0), -5, 0.0)
