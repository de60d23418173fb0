"""A captured checkpoint is frozen: later folds into the live stores do
not reach it.

Every CRDT payload is immutable (numbers, ``(sum, count)`` tuples,
append-log tuples), so captures share the live payloads instead of
copying them; the isolation a copy would give is asserted here for both
payload families.
"""

import pytest

from repro.common.config import ClusterConfig
from repro.core.executor import SlashExecutor
from repro.core.pipeline import compile_query
from repro.faults.checkpoint import Checkpoint
from repro.rdma.connection import ConnectionManager
from repro.runtime import make_workload
from repro.simnet.cluster import Cluster
from repro.simnet.kernel import Simulator
from repro.state.crdt import AppendLogCrdt, AvgCrdt, CountCrdt
from repro.state.partition import PartitionDirectory


def make_executor(workload_name):
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(nodes=1))
    workload = make_workload(workload_name, records_per_thread=100)
    plan = compile_query(workload.build_query())
    return SlashExecutor(
        cluster, ConnectionManager(cluster), PartitionDirectory(1),
        cluster.node(0), 0, plan, [workload.flows(1, 1)[(0, 0)]],
    )


def test_scalar_checkpoint_survives_later_absorbs():
    executor = make_executor("ysb")
    assert isinstance(executor.handle.crdt, CountCrdt)
    executor.handle.absorb((0, 1), 5)
    executor.results.aggregates[(9, 1)] = 3
    checkpoint = Checkpoint.capture(executor, boundary=0)
    executor.handle.absorb((0, 1), 7)
    executor.handle.absorb((0, 2), 1)
    executor.results.aggregates[(9, 2)] = 4
    assert checkpoint.partitions == {0: [((0, 1), 5)]}
    assert checkpoint.aggregates == {(9, 1): 3}


def test_append_log_checkpoint_survives_in_place_updates():
    """The store's mutable region rewrites the key's row in place; the
    captured payload is the old tuple and stays as it was."""
    executor = make_executor("nb8")
    assert isinstance(executor.handle.crdt, AppendLogCrdt)
    executor.handle.update((0, 1), (0, ("l",)))
    live = executor.handle.get_local((0, 1))
    checkpoint = Checkpoint.capture(executor, boundary=0)
    executor.handle.update((0, 1), (1, ("r",)))
    executor.handle.absorb((0, 1), ((1, ("r2",)),))
    assert executor.handle.get_local((0, 1)) == ((0, ("l",)), (1, ("r",)), (1, ("r2",)))
    assert checkpoint.partitions == {0: [((0, 1), ((0, ("l",)),))]}
    # Shared with the store at the cut, not copied.
    assert checkpoint.partitions[0][0][1] is live


@pytest.mark.parametrize("crdt", [CountCrdt(), AvgCrdt(), AppendLogCrdt()], ids=repr)
def test_folds_leave_a_capture_unchanged(crdt):
    captured = crdt.update(crdt.update(crdt.zero(), 1), 2)
    expected = crdt.update(crdt.update(crdt.zero(), 1), 2)
    crdt.update(captured, 3)
    crdt.merge(captured, crdt.update(crdt.zero(), 4))
    assert captured == expected
