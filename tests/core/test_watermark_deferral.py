"""Unit tests for the watermark-deferral rule on sibling deltas.

With a non-identity partition directory, one helper ships several
deltas per epoch to the same leader over one FIFO channel; only the
last may carry the real watermark (see SlashExecutor._defer_watermarks).
"""

import math

import numpy as np

from repro.common.config import ClusterConfig
from repro.core.executor import SlashExecutor
from repro.core.pipeline import compile_query
from repro.rdma.connection import ConnectionManager
from repro.simnet.cluster import Cluster
from repro.simnet.kernel import Simulator
from repro.state.epoch import EpochDelta
from repro.state.lss import window_column
from repro.state.partition import PartitionDirectory
from repro.workloads.ysb import YsbWorkload


def make_executor(leaders):
    sim = Simulator()
    n = len(leaders)
    cluster = Cluster(sim, ClusterConfig(nodes=n))
    cm = ConnectionManager(cluster)
    directory = PartitionDirectory(n, leaders=leaders)
    workload = YsbWorkload(records_per_thread=100, key_range=10, batch_records=50)
    plan = compile_query(workload.build_query())
    flows = [workload.flows(n, 1)[(0, 0)]]
    return SlashExecutor(
        cluster, cm, directory, cluster.node(0), 0, plan, flows
    )


def delta(partition, watermark=55.0, epoch=0):
    keys = [(epoch, partition)]
    return EpochDelta(
        "ysb.agg", partition, 3, epoch, keys, window_column(keys), np.ones(1), 32, watermark
    )


def test_identity_leadership_keeps_all_watermarks():
    executor = make_executor(leaders=[0, 1, 2])
    deltas = [delta(1), delta(2)]
    deferred = executor._defer_watermarks(deltas)
    assert [d.watermark for d in deferred] == [55.0, 55.0]


def test_shared_leader_defers_all_but_last():
    executor = make_executor(leaders=[1, 1, 1])
    deltas = [delta(0), delta(1), delta(2)]
    deferred = executor._defer_watermarks(deltas)
    assert [d.watermark for d in deferred] == [float("-inf"), float("-inf"), 55.0]


def test_mixed_leadership():
    executor = make_executor(leaders=[0, 1, 1, 3])
    deltas = [delta(1), delta(2), delta(3)]
    deferred = executor._defer_watermarks(deltas)
    # Partitions 1 and 2 share leader 1: only the later one keeps it.
    assert deferred[0].watermark == float("-inf")
    assert deferred[1].watermark == 55.0
    assert deferred[2].watermark == 55.0


def test_payload_pairs_unchanged_by_deferral():
    executor = make_executor(leaders=[1, 1, 1])
    original = [delta(0), delta(1)]
    deferred = executor._defer_watermarks(original)
    for before, after in zip(original, deferred):
        assert after.keys is before.keys
        assert after.key_windows is before.key_windows
        assert after.payloads is before.payloads
        assert after.partition == before.partition
        assert after.epoch == before.epoch


def test_empty_batch():
    executor = make_executor(leaders=[0, 1])
    assert executor._defer_watermarks([]) == []
