"""Tests for the two-node drill-down transfer benches."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.transfer import SlashTransferBench, UpParTransferBench
from repro.common.errors import ConfigError
from repro.runtime.scenario import make_workload
from repro.workloads.readonly import ReadOnlyWorkload
from repro.workloads.ysb import YsbWorkload

RO = lambda n=8000: ReadOnlyWorkload(records_per_thread=n, key_range=2000, batch_records=2000)


class TestSlashTransfer:
    def test_counts_are_correct(self):
        workload = ReadOnlyWorkload(records_per_thread=2000, key_range=100, batch_records=500)
        result = SlashTransferBench(threads=2).run(workload)
        assert result.records == 4000
        assert sum(v for v in result.state.values()) == 4000

    def test_throughput_below_link_rate(self):
        result = SlashTransferBench(threads=2).run(RO())
        assert 0 < result.throughput_bytes_per_s <= 11.8e9

    def test_more_threads_more_throughput_until_saturation(self):
        one = SlashTransferBench(threads=1).run(RO())
        four = SlashTransferBench(threads=4).run(RO())
        assert four.throughput_bytes_per_s > one.throughput_bytes_per_s

    def test_larger_buffers_higher_latency(self):
        small = SlashTransferBench(threads=2, buffer_bytes=8 * 1024).run(RO(4000))
        large = SlashTransferBench(threads=2, buffer_bytes=512 * 1024).run(RO(16000))
        assert large.mean_latency_s > small.mean_latency_s

    def test_counters_populated(self):
        result = SlashTransferBench(threads=2).run(RO(4000))
        assert result.sender_counters.total_cycles > 0
        assert result.receiver_counters.records > 0

    def test_signaled_writes_cost_more_cpu(self):
        plain = SlashTransferBench(threads=1, buffer_bytes=8192).run(RO(4000))
        signaled = SlashTransferBench(
            threads=1, buffer_bytes=8192, signal_writes=True
        ).run(RO(4000))
        assert (
            signaled.sender_counters.total_cycles > plain.sender_counters.total_cycles
        )


class TestUpParTransfer:
    def test_counts_are_correct(self):
        workload = ReadOnlyWorkload(records_per_thread=2000, key_range=100, batch_records=500)
        result = UpParTransferBench(threads=2).run(workload)
        assert sum(result.state.values()) == 4000

    def test_slower_than_slash_at_low_parallelism(self):
        workload = RO()
        slash = SlashTransferBench(threads=2).run(workload)
        uppar = UpParTransferBench(threads=2).run(workload)
        assert uppar.throughput_bytes_per_s < slash.throughput_bytes_per_s

    def test_ysb_state_matches_between_shapes(self):
        """Both shapes compute identical YSB window counts."""
        workload = YsbWorkload(records_per_thread=1500, key_range=100, batch_records=300)
        slash = SlashTransferBench(threads=2).run(workload)
        uppar = UpParTransferBench(threads=2).run(workload)
        assert slash.state == uppar.state

    def test_skew_degrades_uppar_but_not_slash(self):
        """Fig. 8d: skewed keys collapse the hash-partitioned shape
        (one consumer owns the hot keys) but leave Slash flat."""
        uniform = ReadOnlyWorkload(records_per_thread=8000, key_range=100_000, batch_records=2000)
        skewed = ReadOnlyWorkload(
            records_per_thread=8000, key_range=100_000, zipf_z=2.0, batch_records=2000
        )
        uppar_uniform = UpParTransferBench(threads=8).run(uniform)
        uppar_skewed = UpParTransferBench(threads=8).run(skewed)
        slash_uniform = SlashTransferBench(threads=8).run(uniform)
        slash_skewed = SlashTransferBench(threads=8).run(skewed)
        assert uppar_skewed.throughput_bytes_per_s < 0.8 * uppar_uniform.throughput_bytes_per_s
        slash_ratio = slash_skewed.throughput_bytes_per_s / slash_uniform.throughput_bytes_per_s
        assert slash_ratio > 0.9  # Slash is skew-agnostic on RO

    def test_rejects_zero_threads(self):
        with pytest.raises(ConfigError):
            UpParTransferBench(threads=0)

    def test_multi_stream_state_matches_slash(self):
        """NB8 switches stream mid-flow: rows pending for a consumer are
        sent under the stream they came from, so both shapes build the
        same join state: the same entries per group, whose arrival order
        differs between the shapes."""
        workload = make_workload("nb8", seed=7, records_per_thread=2000)
        slash = SlashTransferBench(threads=2, buffer_bytes=4096).run(workload)
        uppar = UpParTransferBench(threads=2, buffer_bytes=4096).run(workload)
        assert uppar.records == slash.records == 4000

        def entries(state):
            return {group: sorted(log) for group, log in state.items()}

        assert entries(uppar.state) == entries(slash.state)


def _message(crdt, wins, keys):
    """One consumer's batch result as the deferred merge sees it."""
    from repro.core.aggregations import group_reduce

    group_windows, group_keys, partials = group_reduce(crdt, wins, keys, None)
    return SimpleNamespace(
        group_windows=group_windows, group_keys=group_keys, group_partials=partials
    )


def merge_by_key(crdt, state, partials):
    """Merge ``partials`` into ``state`` one key at a time."""
    for key, partial in partials.items():
        state[key] = crdt.merge(state[key], partial) if key in state else partial


class TestDeferredMerge:
    def test_fold_matches_incremental_merge(self, rng):
        """The end-of-run fold equals merging every batch key by key."""
        from repro.baselines.transfer import _DeferredMerge
        from repro.core.aggregations import partial_aggregate
        from repro.state.crdt import crdt_by_name

        crdt = crdt_by_name("count")
        deferred = _DeferredMerge()
        reference: dict = {}
        for _ in range(20):
            n = int(rng.integers(1, 400))
            wins = rng.integers(0, 3, size=n)
            keys = rng.integers(0, 50, size=n)
            deferred.add(_message(crdt, wins, keys))
            merge_by_key(crdt, reference, partial_aggregate(crdt, wins, keys, None))
        state: dict = {}
        deferred.fold_into(state)
        assert state == reference

    @pytest.mark.parametrize("fold_rows", [8, 64])
    @pytest.mark.parametrize("shape", ["one-window", "mixed"])
    def test_chunked_reduction_is_exact_and_bounded(
        self, rng, monkeypatch, fold_rows, shape
    ):
        """Reductions run mid-stream, keep the resident rows within
        ``2 * max(FOLD_ROWS, distinct groups)`` plus one message, and
        the fold still equals the key-by-key merge, in ascending order."""
        from repro.baselines.transfer import _DeferredMerge
        from repro.core.aggregations import partial_aggregate
        from repro.state.crdt import crdt_by_name

        monkeypatch.setattr(_DeferredMerge, "FOLD_ROWS", fold_rows)
        crdt = crdt_by_name("count")
        deferred = _DeferredMerge()
        reference: dict = {}
        reductions = 0
        for _ in range(60):
            n = int(rng.integers(1, 120))
            if shape == "mixed" and rng.random() < 0.5:
                wins = rng.integers(0, 3, size=n)
            else:
                window = 5 if shape == "one-window" else int(rng.integers(0, 3))
                wins = np.full(n, window, dtype=np.int64)
            keys = rng.integers(0, 150, size=n)
            message = _message(crdt, wins, keys)
            chunks = len(deferred._keys)
            deferred.add(message)
            reductions += len(deferred._keys) <= chunks
            merge_by_key(crdt, reference, partial_aggregate(crdt, wins, keys, None))
            resident = sum(len(k) for k in deferred._keys)
            assert resident == sum(len(w) for w in deferred._windows)
            assert resident == sum(len(p) for p in deferred._partials)
            bound = 2 * max(fold_rows, len(reference))
            assert resident <= bound + len(message.group_keys)
        assert reductions > 0
        state: dict = {}
        deferred.fold_into(state)
        assert state == reference
        assert list(state) == sorted(state)

    def test_empty_fold_is_a_noop(self):
        from repro.baselines.transfer import _DeferredMerge

        state = {("w", 1): 2}
        _DeferredMerge().fold_into(state)
        assert state == {("w", 1): 2}
