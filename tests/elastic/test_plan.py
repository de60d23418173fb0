"""Tests for the declarative rescale schedule (ElasticPlan)."""

import pickle

import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigError
from repro.elastic.plan import (
    ACTIONS,
    DEFAULT_FLUID_RANGES,
    ElasticPlan,
    PartitionMove,
    subrange_of,
    transfer_seconds,
)


class TestValidation:
    def test_defaults_are_valid(self):
        ElasticPlan(rescale_at=0.5).validate()

    def test_unknown_action(self):
        with pytest.raises(ConfigError, match="unknown rescale action"):
            ElasticPlan(rescale_at=0.5, action="shuffle").validate()

    def test_missing_rescale_at(self):
        with pytest.raises(ConfigError, match="rescale_at"):
            ElasticPlan().validate()

    def test_negative_rescale_at(self):
        with pytest.raises(ConfigError, match="non-negative"):
            ElasticPlan(rescale_at=-1.0).validate()

    def test_join_needs_nodes(self):
        with pytest.raises(ConfigError, match="add_nodes"):
            ElasticPlan(rescale_at=0.5, action="join", add_nodes=0).validate()

    def test_leave_needs_drain_node(self):
        with pytest.raises(ConfigError, match="drain_node"):
            ElasticPlan(rescale_at=0.5, action="leave").validate()

    def test_fluid_ranges_floor(self):
        with pytest.raises(ConfigError, match="fluid_ranges"):
            ElasticPlan(rescale_at=0.5, fluid_ranges=0).validate()

    def test_fluid_spread_floor(self):
        with pytest.raises(ConfigError, match="fluid_spread"):
            ElasticPlan(rescale_at=0.5, fluid_spread=-0.1).validate()

    def test_every_named_action_validates(self):
        for action in ACTIONS:
            plan = ElasticPlan(rescale_at=0.5, action=action, drain_node=0)
            plan.validate()


class TestPlainData:
    def test_spare_nodes_only_for_join(self):
        assert ElasticPlan(rescale_at=0.5, add_nodes=2).spare_nodes == 2
        leave = ElasticPlan(rescale_at=0.5, action="leave", drain_node=1)
        assert leave.spare_nodes == 0

    def test_params_round_trips(self):
        plan = ElasticPlan(
            rescale_at=0.25, strategy="all-at-once", action="leave",
            drain_node=3, fluid_ranges=4, fluid_spread=2.0,
        )
        rebuilt = ElasticPlan(**plan.params())
        assert rebuilt == plan

    def test_picklable(self):
        plan = ElasticPlan(rescale_at=0.25)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_move_is_plain_data(self):
        move = PartitionMove(partition=2, src=0, dst=3)
        assert pickle.loads(pickle.dumps(move)) == move


class TestSubrangeOf:
    def test_in_range_and_deterministic(self):
        for key in range(200):
            first = subrange_of(key, DEFAULT_FLUID_RANGES)
            assert 0 <= first < DEFAULT_FLUID_RANGES
            assert subrange_of(key, DEFAULT_FLUID_RANGES) == first

    def test_spreads_over_ranges(self, rng):
        """Keys from one partition's residue class hit every sub-range.

        The sub-range picker uses high hash bits precisely so it stays
        independent of the low bits that choose the partition.
        """
        ranges = 8
        partitions = 4
        keys = rng.integers(0, 1_000_000, size=400)
        hit = {subrange_of(int(k) * partitions, ranges) for k in keys}
        assert hit == set(range(ranges))


class TestTransferSeconds:
    def test_monotone_in_bytes(self):
        config = ClusterConfig(nodes=2)
        small = transfer_seconds(config, 1_000, 4096)
        large = transfer_seconds(config, 1_000_000, 4096)
        assert 0 < small < large

    def test_chunking_charges_per_buffer_nic_time(self):
        config = ClusterConfig(nodes=2)
        one_chunk = transfer_seconds(config, 64 * 1024, 64 * 1024)
        many_chunks = transfer_seconds(config, 64 * 1024, 4 * 1024)
        assert many_chunks > one_chunk
        extra_chunks = 16 - 1
        assert many_chunks - one_chunk == pytest.approx(
            extra_chunks * config.node.nic.nic_processing_s
        )
