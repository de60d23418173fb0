"""Unit tests for SlashExecutor internals: watermarks, chunking, wiring."""

import numpy as np
import pytest

from repro.common.config import ClusterConfig
from repro.common.errors import QueryError
from repro.core.engine import SlashEngine
from repro.core.executor import (
    CHUNK_HEADER_BYTES,
    DeltaChunk,
    DoneToken,
    FlowWatermarks,
    SlashExecutor,
    assemble,
)
from repro.core.pipeline import compile_query
from repro.rdma.connection import ConnectionManager
from repro.runtime import make_workload
from repro.simnet.cluster import Cluster
from repro.simnet.kernel import Simulator
from repro.state.crdt import AppendLogCrdt, SumCrdt
from repro.state.epoch import EpochDelta
from repro.state.lss import LogStructuredStore, window_column
from repro.state.partition import PartitionDirectory
from repro.state.ssb import DELTA_HEADER_BYTES, SlashStateBackend
from repro.workloads.ysb import YsbWorkload


def column_delta(operator_id, pairs, epoch=0, nbytes=0, watermark=1.0):
    """An epoch delta carrying ``pairs`` as the columns a ship yields."""
    keys = [key for key, _payload in pairs]
    payloads = [payload for _key, payload in pairs]
    if payloads and isinstance(payloads[0], tuple):
        column = np.fromiter(payloads, dtype=object, count=len(payloads))
    else:
        column = np.asarray(payloads)
    return EpochDelta(
        operator_id, 1, 0, epoch, keys, window_column(keys), column, nbytes, watermark
    )


def chunk_pairs(chunk):
    """The ``(key, payload)`` rows of one chunk."""
    return tuple(zip(chunk.keys, chunk.payloads.tolist()))


class TestFlowWatermarks:
    def test_single_flow_single_stream(self):
        wm = FlowWatermarks(1, ["s"])
        assert wm.watermark == float("-inf")
        wm.observe(0, "s", 10)
        assert wm.watermark == 10

    def test_min_over_streams(self):
        wm = FlowWatermarks(1, ["a", "b"])
        wm.observe(0, "a", 100)
        assert wm.watermark == float("-inf")  # stream b unseen
        wm.observe(0, "b", 40)
        assert wm.watermark == 40

    def test_min_over_flows(self):
        wm = FlowWatermarks(2, ["s"])
        wm.observe(0, "s", 100)
        wm.observe(1, "s", 60)
        assert wm.watermark == 60

    def test_finished_flows_drop_out(self):
        wm = FlowWatermarks(2, ["s"])
        wm.observe(0, "s", 100)
        wm.observe(1, "s", 60)
        wm.finish(1)
        assert wm.watermark == 100
        wm.finish(0)
        assert wm.watermark == float("inf")

    def test_never_regresses(self):
        wm = FlowWatermarks(1, ["s"])
        wm.observe(0, "s", 100)
        wm.observe(0, "s", 50)
        assert wm.watermark == 100


def make_executor(nodes=2, flows_count=2, workload=None):
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(nodes=nodes))
    cm = ConnectionManager(cluster)
    directory = PartitionDirectory(nodes)
    if workload is None:
        workload = YsbWorkload(records_per_thread=400, key_range=50, batch_records=100)
    plan = compile_query(workload.build_query())
    flows = [workload.flows(nodes, flows_count)[(0, t)] for t in range(flows_count)]
    executor = SlashExecutor(
        cluster, cm, directory, cluster.node(0), 0, plan, flows,
        buffer_bytes=8192, epoch_bytes=16 * 1024,
    )
    return sim, cluster, executor


class TestChunking:
    def test_small_delta_is_one_chunk(self):
        _sim, _cluster, executor = make_executor()
        delta = column_delta("ysb.agg", (("k", 1.0),), nbytes=48, watermark=5.0)
        chunks = list(executor._chunk_delta(delta))
        assert len(chunks) == 1
        assert chunks[0].last

    def test_many_pairs_split_into_chunks(self):
        _sim, _cluster, executor = make_executor()
        pairs = tuple(((0, k), float(k)) for k in range(2000))
        delta = column_delta("ysb.agg", pairs, epoch=3, nbytes=2000 * 32, watermark=7.0)
        chunks = list(executor._chunk_delta(delta))
        assert len(chunks) > 1
        assert sum(len(c.keys) for c in chunks) == 2000
        assert [c.last for c in chunks] == [False] * (len(chunks) - 1) + [True]
        # Every chunk fits the channel buffer.
        for chunk in chunks:
            assert chunk.nbytes <= executor.buffer_bytes - 512
            assert chunk.epoch == 3
            assert chunk.partition == 1

    def test_oversized_append_payload_is_split(self):
        """One key whose record tuple exceeds a buffer must be split into
        mergeable sub-tuples, each priced by its own length."""
        crdt = AppendLogCrdt(record_bytes=100)
        delta = column_delta("nb8.join", (((0, 1), (1, 2)), ((0, 2), tuple(range(500)))))
        keys, key_windows, payloads, row_bytes = SlashExecutor._split_oversized(
            delta.keys, delta.key_windows, delta.payloads, crdt, capacity=4096
        )  # ~50 KB >> 4 KiB
        assert keys[0] == (0, 1) and payloads[0] is delta.payloads[0]
        assert len(keys) > 2 and key_windows.tolist() == [0] * len(keys)
        assert row_bytes.tolist() == [16 + crdt.value_bytes(p) for p in payloads]
        reassembled = ()
        for key, payload in zip(keys[1:], payloads[1:]):
            assert key == (0, 2) and type(payload) is tuple
            assert 8 + crdt.value_bytes(payload) <= 4096
            reassembled += payload
        assert reassembled == tuple(range(500))

    def test_scalar_pairs_never_split(self):
        _sim, _cluster, executor = make_executor()
        assert executor.handle.crdt.fixed_size
        executor.buffer_bytes = 512 + CHUNK_HEADER_BYTES + 16 + executor.handle.crdt.payload_bytes
        delta = column_delta("ysb.agg", (("a", 1.0), ("b", 2.0)))
        assert [chunk_pairs(chunk) for chunk in executor._chunk_delta(delta)] == [
            (("a", 1.0),), (("b", 2.0),)
        ]

    def test_fixed_size_cut_equals_the_pair_walk(self, rng):
        """Cutting fixed-size payloads by division packs exactly what
        walking the pairs one by one packs, at any capacity — including
        one too small for a single pair."""
        _sim, _cluster, executor = make_executor()
        crdt = executor.handle.crdt
        pair_bytes = 16 + crdt.payload_bytes

        def walk(pairs, capacity):
            chunks, current, size = [], [], CHUNK_HEADER_BYTES
            for pair in pairs:
                if current and size + pair_bytes > capacity:
                    chunks.append((tuple(current), min(size, capacity), False))
                    current, size = [], CHUNK_HEADER_BYTES
                current.append(pair)
                size += pair_bytes
            chunks.append((tuple(current), min(size, capacity), True))
            return chunks

        below_one_pair = [CHUNK_HEADER_BYTES - 8, CHUNK_HEADER_BYTES + pair_bytes - 1]
        exact = [CHUNK_HEADER_BYTES + 3 * pair_bytes]
        drawn = [int(c) for c in rng.integers(1, 9000, size=24)]
        for capacity in below_one_pair + exact + drawn:
            executor.buffer_bytes = capacity + 512
            for count in (0, 1, 3, 6, int(rng.integers(0, 700))):
                pairs = tuple(((0, k), k) for k in range(count))
                chunks = executor._chunk_delta(column_delta("ysb.agg", pairs))
                got = [(chunk_pairs(chunk), chunk.nbytes, chunk.last) for chunk in chunks]
                assert got == walk(pairs, capacity), (capacity, count)

    def test_variable_size_cut_equals_the_pair_walk(self, rng):
        """The columnar cut of append-log deltas packs exactly what the
        pair walk it replaced packs: the same pairs (oversized payloads
        split into the same sub-tuples), ``nbytes`` and ``last`` flags."""
        nb8 = make_workload("nb8", records_per_thread=100)
        _sim, _cluster, executor = make_executor(workload=nb8)
        crdt = executor.handle.crdt
        assert not crdt.fixed_size

        def split_oversized(pairs, capacity):
            for key, payload in pairs:
                if 16 + crdt.value_bytes(payload) > capacity:
                    per_record = max(1, crdt.value_bytes(payload[:1]))
                    step = max(1, (capacity - 64) // per_record)
                    for start in range(0, len(payload), step):
                        yield key, payload[start:start + step]
                else:
                    yield key, payload

        def walk(pairs, capacity):
            chunks, current, size = [], [], CHUNK_HEADER_BYTES
            for pair in split_oversized(pairs, capacity):
                pair_bytes = 16 + crdt.value_bytes(pair[1])
                if current and size + pair_bytes > capacity:
                    chunks.append((tuple(current), min(size, capacity), False))
                    current, size = [], CHUNK_HEADER_BYTES
                current.append(pair)
                size += pair_bytes
            chunks.append((tuple(current), min(size, capacity), True))
            return chunks

        def payload(length):
            return tuple((int(side), (int(row),)) for side, row in zip(
                rng.integers(0, 2, size=length), rng.integers(0, 1000, size=length)
            ))

        def delta_of(count):
            # Mostly short payloads, some empty, some past one buffer.
            lengths = rng.integers(0, 6, size=count)
            hot = rng.random(count) < 0.15
            lengths[hot] = rng.integers(0, 120, size=int(hot.sum()))
            return tuple(((0, k), payload(int(n))) for k, n in enumerate(lengths))

        def boundaries(pairs):
            """Capacities on the walk's edges: a chunk that fits exactly, a
            pair exactly one buffer, a split step one record either side."""
            per_record = crdt.value_bytes((None,))
            edges = [64 + per_record * int(m) + d
                     for m in rng.integers(1, 40, size=2) for d in (-1, 0, 1)]
            sizes = [16 + crdt.value_bytes(p) for _k, p in pairs]
            if sizes:
                cuts = rng.integers(1, len(sizes) + 1, size=3).tolist()
                edges += [CHUNK_HEADER_BYTES + sum(sizes[:cut]) for cut in cuts]
                edges += [sizes[i] for i in rng.integers(0, len(sizes), size=3).tolist()]
            return edges

        one_pair = 16 + crdt.value_bytes((None,))
        below_one_pair = [1, CHUNK_HEADER_BYTES - 8, CHUNK_HEADER_BYTES + one_pair - 1]
        for trial in range(30):
            count = (0, 1, 3)[trial] if trial < 3 else int(rng.integers(0, 200))
            pairs = delta_of(count)
            delta = column_delta("nb8.join", pairs)
            drawn = [int(c) for c in rng.integers(1, 12_000, size=3)]
            for capacity in below_one_pair + drawn + boundaries(pairs):
                executor.buffer_bytes = capacity + 512
                chunks = executor._chunk_delta(delta)
                got = [(chunk_pairs(chunk), chunk.nbytes, chunk.last) for chunk in chunks]
                assert got == walk(pairs, capacity), (capacity, count)


def pair_walk(pairs, crdt, capacity):
    """What packing ``pairs`` one by one cuts: ``(pairs, nbytes, last)`` per
    chunk, an oversized append log first split into sub-tuples."""

    def rows():
        for key, payload in pairs:
            if not crdt.fixed_size and 16 + crdt.value_bytes(payload) > capacity:
                step = max(1, (capacity - 64) // crdt.value_bytes(payload[:1]))
                for start in range(0, len(payload), step):
                    yield key, payload[start:start + step]
            else:
                yield key, payload

    chunks, current, size = [], [], CHUNK_HEADER_BYTES
    for key, payload in rows():
        pair_bytes = 16 + crdt.value_bytes(payload)
        if current and size + pair_bytes > capacity:
            chunks.append((tuple(current), min(size, capacity), False))
            current, size = [], CHUNK_HEADER_BYTES
        current.append((key, payload))
        size += pair_bytes
    chunks.append((tuple(current), min(size, capacity), True))
    return chunks


class TestDeltaRoundTrip:
    """A seeded walk over the whole delta path: a helper's fragment is
    shipped as columns, chunked at 4 KiB and at 64 KiB, reassembled and
    merged at the leader, and every step is held to the pair form — the
    fragment's ``delta_pairs`` absorbed pair by pair into a reference
    store, and packed pair by pair into chunks."""

    @pytest.mark.parametrize("name", ["ysb", "cm", "nb8"], ids=["count", "avg", "append-log"])
    def test_round_trip_equals_pair_absorb(self, name, rng):
        workload = make_workload(name, records_per_thread=100)
        _sim, _cluster, executor = make_executor(workload=workload)
        leader = executor.handle
        crdt = leader.crdt
        helper = SlashStateBackend(1, executor.directory).handle(leader.operator_id, crdt)
        fragment = helper.store_for(0)
        reference = LogStructuredStore(crdt)

        def value():
            if name == "ysb":
                return int(rng.integers(1, 4))
            if name == "cm":
                return float(rng.choice([-0.0, 0.5, -2.25, 7.0]))
            return (int(rng.integers(0, 2)), (int(rng.integers(0, 1000)),))

        def state_key():
            group = int(rng.integers(0, 60))
            return group if rng.random() < 0.1 else (int(rng.integers(0, 5)), group)

        for epoch in range(16):
            for _ in range(int(rng.integers(0, 120))):
                helper.update(state_key(), value())
            if name == "nb8":
                # Payloads past one 4 KiB buffer, some past 64 KiB.
                for _ in range(int(rng.integers(0, 3))):
                    records = int(rng.choice([20, 60, 300]))
                    helper.absorb(state_key(), tuple(value() for _ in range(records)))
            if rng.random() < 0.3:
                fragment.mark_readonly()  # later RMWs copy-on-write
            if rng.random() < 0.3:
                leader.store_for(0).mark_readonly()
                reference.mark_readonly()
            expected = fragment.delta_pairs()
            (delta,) = helper.collect_deltas()
            assert delta.epoch == epoch and fragment.delta_pairs() == []
            assert list(zip(delta.keys, delta.payloads.tolist())) == expected
            assert delta.nbytes == DELTA_HEADER_BYTES + sum(
                16 + crdt.value_bytes(payload) for _key, payload in expected
            )
            assert list(delta.windows) == sorted(
                {key[0] for key, _payload in expected if isinstance(key, tuple)}
            )
            chunked = {}
            for buffer_bytes in (4096, 65536):
                executor.buffer_bytes = buffer_bytes
                chunks = chunked[buffer_bytes] = executor._chunk_delta(delta)
                got = [(chunk_pairs(chunk), chunk.nbytes, chunk.last) for chunk in chunks]
                assert got == pair_walk(expected, crdt, buffer_bytes - 512)
                assert chunks[-1].windows == delta.windows
            for key, payload in expected:
                reference.absorb(key, payload)
            merged = assemble(chunked[(4096, 65536)[epoch % 2]])
            assert leader.merge_delta(merged)
            assert repr(list(leader.store_for(0).scan())) == repr(list(reference.scan()))
            assert leader.store_for(0).size_bytes == reference.size_bytes


class TestWiring:
    def test_connect_creates_channel_per_ordered_pair(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(nodes=3))
        cm = ConnectionManager(cluster)
        directory = PartitionDirectory(3)
        workload = YsbWorkload(records_per_thread=100, key_range=10, batch_records=50)
        plan = compile_query(workload.build_query())
        flows = workload.flows(3, 1)
        executors = [
            SlashExecutor(
                cluster, cm, directory, cluster.node(i), i, plan,
                [flows[(i, 0)]],
            )
            for i in range(3)
        ]
        for executor in executors:
            executor.connect(executors)
        # n * (n-1) ordered pairs -> the paper's n^2 channels overall.
        assert cm.connection_count == 3 * 2
        for executor in executors:
            assert len(executor._out_channels) == 2
            assert len(executor._in_channels) == 2

    def test_too_many_flows_rejected(self):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(nodes=1))
        cm = ConnectionManager(cluster)
        directory = PartitionDirectory(1)
        workload = YsbWorkload(records_per_thread=100, key_range=10, batch_records=50)
        plan = compile_query(workload.build_query())
        flow = workload.flows(1, 1)[(0, 0)]
        with pytest.raises(QueryError, match="exceed"):
            SlashExecutor(
                cluster, cm, directory, cluster.node(0), 0, plan, [flow] * 11
            )


class TestEngineValidation:
    def test_sparse_thread_ids_rejected(self):
        workload = YsbWorkload(records_per_thread=100, key_range=10, batch_records=50)
        flows = workload.flows(1, 2)
        flows[(0, 5)] = flows.pop((0, 1))
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError, match="dense"):
            SlashEngine().run(workload.build_query(), flows)

    def test_empty_flows_rejected(self):
        from repro.common.errors import ConfigError

        workload = YsbWorkload(records_per_thread=100, key_range=10, batch_records=50)
        with pytest.raises(ConfigError, match="no flows"):
            SlashEngine().run(workload.build_query(), {})

    def test_flows_beyond_cluster_rejected(self):
        from repro.common.config import paper_cluster
        from repro.common.errors import ConfigError

        workload = YsbWorkload(records_per_thread=100, key_range=10, batch_records=50)
        flows = workload.flows(4, 1)
        engine = SlashEngine(cluster_config=paper_cluster(2))
        with pytest.raises(ConfigError, match="cluster"):
            engine.run(workload.build_query(), flows)


class TestTokens:
    def test_done_token_and_chunk_are_distinct_payload_types(self):
        token = DoneToken(3)
        empty = np.empty(0, dtype=np.int64)
        chunk = DeltaChunk("op", 0, 1, 2, [], empty, empty, CHUNK_HEADER_BYTES, 1.0, True)
        assert token.from_executor == 3
        assert chunk.last and chunk.epoch == 2
        assert not isinstance(token, DeltaChunk)
