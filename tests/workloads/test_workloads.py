"""Tests for the workload generators."""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.workloads import (
    ClusterMonitoringWorkload,
    Nexmark7Workload,
    Nexmark8Workload,
    Nexmark11Workload,
    ReadOnlyWorkload,
    YsbWorkload,
)

ALL_WORKLOADS = [
    lambda: YsbWorkload(records_per_thread=600, key_range=100),
    lambda: ClusterMonitoringWorkload(records_per_thread=600, jobs=50),
    lambda: Nexmark7Workload(records_per_thread=600, key_range=100),
    lambda: ReadOnlyWorkload(records_per_thread=600, key_range=100),
    lambda: Nexmark8Workload(records_per_thread=600, sellers=20),
    lambda: Nexmark11Workload(records_per_thread=600, sellers=20),
]


@pytest.mark.parametrize("factory", ALL_WORKLOADS, ids=lambda f: f().name)
class TestCommonProperties:
    def test_total_records_exact(self, factory):
        workload = factory()
        flows = workload.flows(2, 3)
        total = sum(len(b) for flow in flows.values() for _s, b in flow)
        assert total == 2 * 3 * 600

    def test_deterministic(self, factory):
        a = factory().flows(1, 2)
        b = factory().flows(1, 2)
        for key in a:
            for (sa, ba), (sb, bb) in zip(a[key], b[key]):
                assert sa == sb
                assert np.array_equal(ba.data, bb.data)

    def test_flows_differ_across_threads(self, factory):
        flows = factory().flows(1, 2)
        a = np.concatenate([b.keys for _s, b in flows[(0, 0)]])
        b = np.concatenate([b.keys for _s, b in flows[(0, 1)]])
        assert not np.array_equal(a, b)

    def test_timestamps_monotone_per_stream(self, factory):
        """The watermark contract: per (flow, stream) strictly increasing."""
        workload = factory()
        flows = workload.flows(1, 2)
        for flow in flows.values():
            per_stream: dict = {}
            for stream, batch in flow:
                ts = batch.timestamps
                if len(ts) == 0:
                    continue
                assert np.all(np.diff(ts) > 0)
                if stream in per_stream:
                    assert ts[0] > per_stream[stream]
                per_stream[stream] = ts[-1]

    def test_timestamps_within_span(self, factory):
        workload = factory()
        flows = workload.flows(1, 1)
        for flow in flows.values():
            for _stream, batch in flow:
                assert batch.timestamps.max() < workload.span_ms
                assert batch.timestamps.min() >= 0

    def test_query_validates_and_matches_schema(self, factory):
        workload = factory()
        query = workload.build_query()
        query.validate()
        stream_names = {s.name for s in query.streams}
        flows = workload.flows(1, 1)
        for flow in flows.values():
            for stream, _batch in flow:
                assert stream in stream_names

    def test_batch_size_respected(self, factory):
        workload = factory()
        for flow in workload.flows(1, 1).values():
            for _stream, batch in flow:
                assert len(batch) <= workload.batch_records


class TestYsbSpecifics:
    def test_record_bytes_78(self):
        assert YsbWorkload().build_query().streams[0].schema.record_bytes == 78

    def test_event_types_cover_range(self):
        workload = YsbWorkload(records_per_thread=3000, key_range=10)
        flow = workload.flows(1, 1)[(0, 0)]
        types = np.concatenate([b.col("event_type") for _s, b in flow])
        assert set(np.unique(types)) == {0, 1, 2}

    def test_zipf_skews_keys(self):
        uniform = YsbWorkload(records_per_thread=5000, key_range=1000)
        skewed = YsbWorkload(records_per_thread=5000, key_range=1000, zipf_z=1.5)
        u_keys = np.concatenate([b.keys for _s, b in uniform.flows(1, 1)[(0, 0)]])
        z_keys = np.concatenate([b.keys for _s, b in skewed.flows(1, 1)[(0, 0)]])
        assert len(np.unique(z_keys)) < len(np.unique(u_keys)) / 2


class TestJoinSpecifics:
    def test_ratio_roughly_4_to_1(self):
        workload = Nexmark8Workload(records_per_thread=1000, sellers=50)
        flow = workload.flows(1, 1)[(0, 0)]
        auctions = sum(len(b) for s, b in flow if s == "auctions")
        sellers = sum(len(b) for s, b in flow if s == "sellers")
        assert auctions == pytest.approx(4 * sellers, rel=0.05)

    def test_every_auction_has_valid_seller_key(self):
        workload = Nexmark8Workload(records_per_thread=1000, sellers=50)
        flow = workload.flows(1, 1)[(0, 0)]
        auction_keys = np.concatenate([b.keys for s, b in flow if s == "auctions"])
        assert auction_keys.min() >= 0
        assert auction_keys.max() < 50

    def test_record_sizes_match_paper(self):
        query = Nexmark8Workload().build_query()
        sizes = {s.name: s.schema.record_bytes for s in query.streams}
        assert sizes == {"auctions": 269, "sellers": 206}
        query11 = Nexmark11Workload().build_query()
        sizes11 = {s.name: s.schema.record_bytes for s in query11.streams}
        assert sizes11 == {"bids": 32, "sellers": 206}


class TestValidation:
    def test_bad_sizes_rejected(self):
        with pytest.raises(ConfigError):
            YsbWorkload(records_per_thread=0)
        with pytest.raises(ConfigError):
            YsbWorkload(batch_records=0)
        with pytest.raises(ConfigError):
            YsbWorkload().flows(0, 1)

    def test_span_too_small_for_strict_timestamps(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            ReadOnlyWorkload(records_per_thread=1000, span_ms=10).flows(1, 1)
