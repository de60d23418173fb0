"""Unit tests for the Slash migration coordinator's forwarding window.

These drive :class:`SlashElasticCoordinator`'s executor-facing hooks
directly against fakes, pinning the admission protocol that keeps the
per-helper epoch sequence dense across a handoff.  Two of the cases are
regressions for protocol bugs that only surfaced at scale:

* the reorder buffer must gate on *ledger denseness*, not on the
  coordinator's pending books — a direct delta can close a gap (and be
  pruned from ``pending``) while later epochs still sit parked; and
* a delta whose send path vanished (the shipper thread's producer was
  closed behind its own final cut, or re-pointing made the helper its
  own leader) must be carried to the new leader by the coordinator —
  dropping it is only correct on the crash-promotion path.
"""

import numpy as np
import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import ConfigError, StateError
from repro.core.executor import SlashExecutor
from repro.elastic.migration import SlashElasticCoordinator, _PostState
from repro.elastic.plan import ElasticPlan, PartitionMove
from repro.state.epoch import EpochDelta
from repro.state.lss import window_column
from repro.state.partition import PartitionDirectory


class FakeSim:
    def __init__(self):
        self.now = 0.0
        self.sanitize = None
        self.faults = None
        self.spawned = []

    def process(self, gen, name=""):
        self.spawned.append((name, gen))


class FakeLedger:
    def __init__(self, admitted=None):
        self._admitted = dict(admitted or {})

    def last_epoch(self, operator_id, partition, helper):
        return self._admitted.get((partition, helper), -1)


class FakeBackend:
    def __init__(self, ledger):
        self.ledger = ledger


class FakeExecutor:
    def __init__(self, executor_id, admitted=None):
        self.executor_id = executor_id
        self.backend = FakeBackend(FakeLedger(admitted))
        self._last_contribution = {}

    hints_of = SlashExecutor.hints_of


class FakeCluster:
    config = ClusterConfig(nodes=2)


def delta(epoch, partition=0, helper=1, keys=((3, 42),), payloads=(1.0,)):
    return EpochDelta(
        operator_id="op", partition=partition, from_executor=helper,
        epoch=epoch, keys=list(keys), key_windows=window_column(keys),
        payloads=np.asarray(payloads), nbytes=64, watermark=0.0,
    )


@pytest.fixture
def coord():
    sim = FakeSim()
    directory = PartitionDirectory(3, leaders=[2, 1, 2])  # p0 moved 0 -> 2
    coordinator = SlashElasticCoordinator(
        sim, FakeCluster(), directory, ElasticPlan(rescale_at=0.5), 4096
    )
    coordinator.executors = [FakeExecutor(i) for i in range(3)]
    coordinator.operator_id = "op"
    return coordinator


def open_window(coord, pending=None, partition=0, src=0, dst=2):
    post = _PostState(
        move=PartitionMove(partition=partition, src=src, dst=dst),
        pending={h: set(epochs) for h, epochs in (pending or {}).items()},
    )
    coord._post[partition] = post
    return post


class TestOnDelta:
    def test_untracked_partition_is_ignored(self, coord):
        assert coord.on_delta(coord.executors[2], delta(0, partition=1), ()) is False

    def test_old_leader_relays_with_identity(self, coord):
        post = open_window(coord, pending={1: {5}})
        consumed = coord.on_delta(coord.executors[0], delta(5), ())
        assert consumed is True
        assert post.relays_in_flight == 1
        assert any("relay" in name for name, _g in coord.sim.spawned)

    def test_bystander_is_not_a_relay_source(self, coord):
        open_window(coord)
        assert coord.on_delta(coord.executors[1], delta(5), ()) is False

    def test_dense_delta_merges_on_executor_path(self, coord):
        open_window(coord, pending={1: {3}})
        new_leader = coord.executors[2]
        new_leader.backend.ledger._admitted[(0, 1)] = 1
        assert coord.on_delta(new_leader, delta(2), ()) is False
        assert not coord.sim.spawned

    def test_skip_parks_while_pending_in_flight(self, coord):
        post = open_window(coord, pending={1: {2, 3}})
        new_leader = coord.executors[2]
        new_leader.backend.ledger._admitted[(0, 1)] = 1
        assert coord.on_delta(new_leader, delta(5), ()) is True
        assert [d.epoch for d, _t in post.buffers[1]] == [5]

    def test_regression_skip_parks_while_buffers_nonempty(self, coord):
        """Pending pruned to nothing must not close the reorder window.

        The bug: epoch 22 merged directly and the prune emptied
        ``pending`` while 23..35 still sat in ``buffers``; the next
        direct delta (36) then fell through to the ledger and raised
        an epoch-skip StateError.  Denseness, not pending, is the gate.
        """
        post = open_window(coord, pending={1: {2}})
        new_leader = coord.executors[2]
        new_leader.backend.ledger._admitted[(0, 1)] = 2  # prune point
        post.buffers[1] = [(delta(4), ())]
        assert coord.on_delta(new_leader, delta(6), ()) is True
        assert 1 not in post.pending  # opportunistically pruned
        assert [d.epoch for d, _t in post.buffers[1]] == [4, 6]

    def test_skip_parks_while_relays_in_flight(self, coord):
        post = open_window(coord)
        post.relays_in_flight = 1
        new_leader = coord.executors[2]
        assert coord.on_delta(new_leader, delta(4), ()) is True
        assert [d.epoch for d, _t in post.buffers[1]] == [4]

    def test_real_skip_falls_through_to_the_ledger(self, coord):
        """A gap with nothing in flight is a protocol bug, kept loud."""
        open_window(coord)
        new_leader = coord.executors[2]
        assert coord.on_delta(new_leader, delta(7), ()) is False

    def test_dense_delta_schedules_drain_of_parked_successors(self, coord):
        post = open_window(coord)
        post.buffers[1] = [(delta(2), ())]
        new_leader = coord.executors[2]
        new_leader.backend.ledger._admitted[(0, 1)] = 0
        assert coord.on_delta(new_leader, delta(1), ()) is False
        assert any("drain" in name for name, _g in coord.sim.spawned)


class TestOnShipBlocked:
    def test_untracked_partition_keeps_crash_promotion_drop(self, coord):
        helper = coord.executors[1]
        assert coord.on_ship_blocked(helper, delta(3, partition=1)) is False

    def test_regression_closed_producer_delta_is_carried(self, coord):
        """The two-shipper interleave: thread B closed the channel the
        re-pointed backlog needed; the coordinator must carry those
        epochs itself or the drain stalls forever."""
        post = open_window(coord, pending={1: {3}})
        helper = coord.executors[1]
        helper._last_contribution[3] = 0.25
        assert coord.on_ship_blocked(helper, delta(3)) is True
        assert post.relays_in_flight == 1
        assert any("forward" in name for name, _g in coord.sim.spawned)

    def test_new_leader_forwards_to_itself_without_wire_delay(self, coord):
        open_window(coord, pending={2: {3}})
        new_leader = coord.executors[2]
        coord.on_ship_blocked(new_leader, delta(3, helper=2))
        name, gen = coord.sim.spawned[-1]
        # delay == 0: the generator's first step must not be a Timeout
        # of the wire-transfer kind; it finishes the forward inline.
        assert "forward" in name


class TestPostRunAccounting:
    def test_missed_rescale_raises_config_error(self, coord):
        coord.missed_rescale = True
        with pytest.raises(ConfigError, match="after the .* horizon"):
            coord.check_complete()

    def test_undrained_window_raises_state_error(self, coord):
        open_window(coord, pending={1: {9}})
        with pytest.raises(StateError, match="undrained"):
            coord.check_complete()

    def test_drained_window_passes(self, coord):
        open_window(coord)
        coord.check_complete()

    def test_report_separates_completed_from_rolled_back(self, coord):
        coord.events = [
            {"rolled_back": False, "moved_bytes": 100},
            {"rolled_back": True},
        ]
        report = coord.report()
        assert report["moves_completed"] == 1
        assert report["moves_rolled_back"] == 1
        assert report["moved_bytes"] == 100
