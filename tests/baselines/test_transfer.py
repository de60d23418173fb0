"""Tests for the two-node drill-down transfer benches."""

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


class TestQueryShape:
    """The benches run one-stream count queries and name any other query
    in a ``ConfigError`` before building a simulator."""

    @pytest.mark.parametrize("bench_cls", [SlashTransferBench, UpParTransferBench])
    @pytest.mark.parametrize(
        "name, what",
        [("nb8", "nb8 is a join"), ("cm", "cm aggregates with avg")],
        ids=["nb8", "cm"],
    )
    def test_a_query_other_than_a_one_stream_count_is_a_config_error(
        self, bench_cls, name, what
    ):
        workload = make_workload(name, seed=7, records_per_thread=200)
        with pytest.raises(ConfigError, match=what):
            bench_cls(threads=2, buffer_bytes=4096).run(workload)


def merge_by_key(crdt, state, partials):
    """Merge ``partials`` into ``state`` one key at a time."""
    for key, partial in partials.items():
        state[key] = crdt.merge(state[key], partial) if key in state else partial


def resident_rows(runs) -> int:
    """Rows the count fold holds: staged runs plus kept unique runs."""
    staged = sum(len(run) for window in runs._staged.values() for run in window)
    kept = sum(len(keys) for keys, counts in runs._kept.values())
    assert kept == sum(len(counts) for keys, counts in runs._kept.values())
    return staged + kept


def message(rng, shape, n, key_range):
    """One consumer message's window ids and keys."""
    if shape == "several-windows":
        return rng.integers(0, 3, size=n), rng.integers(0, key_range, size=n)
    if shape == "heavy-repeats":
        keys = rng.integers(0, 4, size=n) * 1000
    else:
        keys = rng.integers(0, key_range, size=n)
    return np.full(n, 5, dtype=np.int64), keys


class TestDeferredMerge:
    """The count fold: each message is sorted once and staged, and staged
    runs are merged into the kept unique runs at a geometric threshold."""

    def test_fold_matches_incremental_merge(self, rng):
        """The end-of-run fold equals merging every batch key by key."""
        from repro.baselines.transfer import _CountRuns
        from repro.core.aggregations import partial_aggregate
        from repro.state.crdt import crdt_by_name

        crdt = crdt_by_name("count")
        runs = _CountRuns()
        reference: dict = {}
        for _ in range(20):
            n = int(rng.integers(1, 400))
            wins = rng.integers(0, 3, size=n)
            keys = rng.integers(0, 50, size=n)
            runs.stage(wins, keys)
            merge_by_key(crdt, reference, partial_aggregate(crdt, wins, keys, None))
        state: dict = {}
        runs.fold_into(state)
        assert state == reference

    @pytest.mark.parametrize("fold_rows", [8, 64])
    @pytest.mark.parametrize("shape", ["one-window", "mixed"])
    def test_chunked_reduction_is_exact_and_bounded(
        self, rng, monkeypatch, fold_rows, shape
    ):
        """A fold runs exactly when the staged rows reach ``max(FOLD_ROWS,
        kept rows)``, the resident rows stay within ``2 * max(FOLD_ROWS,
        distinct groups)`` plus one message, and the fold still equals
        the key-by-key merge, in ascending order."""
        from repro.baselines.transfer import _CountRuns
        from repro.core.aggregations import partial_aggregate
        from repro.state.crdt import crdt_by_name

        monkeypatch.setattr(_CountRuns, "FOLD_ROWS", fold_rows)
        crdt = crdt_by_name("count")
        runs = _CountRuns()
        reference: dict = {}
        staged = kept = folds = 0
        for _ in range(60):
            n = int(rng.integers(1, 120))
            if shape == "mixed" and rng.random() < 0.5:
                wins = rng.integers(0, 3, size=n)
            else:
                window = 5 if shape == "one-window" else int(rng.integers(0, 3))
                wins = np.full(n, window, dtype=np.int64)
            keys = rng.integers(0, 150, size=n)
            runs.stage(wins, keys)
            merge_by_key(crdt, reference, partial_aggregate(crdt, wins, keys, None))
            staged += n
            if staged >= max(fold_rows, kept):
                staged, kept, folds = 0, len(reference), folds + 1
            assert resident_rows(runs) == staged + kept
            assert resident_rows(runs) <= 2 * max(fold_rows, len(reference)) + n
        assert folds > 0
        state: dict = {}
        runs.fold_into(state)
        assert state == reference
        assert list(state) == sorted(state)

    def test_a_fold_runs_when_the_staged_rows_reach_the_threshold(self, monkeypatch):
        from repro.baselines.transfer import _CountRuns

        monkeypatch.setattr(_CountRuns, "FOLD_ROWS", 8)
        runs = _CountRuns()
        window = np.zeros(4, dtype=np.int64)
        runs.stage(window, np.array([3, 1, 3, 2]))
        assert (runs._staged_rows, runs._kept_rows) == (4, 0)
        runs.stage(window, np.array([9, 8, 7, 6]))
        assert (runs._staged_rows, runs._kept_rows) == (0, 7)
        state: dict = {}
        runs.fold_into(state)
        assert state == {(0, 1): 1, (0, 2): 1, (0, 3): 2, (0, 6): 1, (0, 7): 1,
                         (0, 8): 1, (0, 9): 1}

    @pytest.mark.parametrize("shape", ["one-window", "several-windows", "heavy-repeats"])
    def test_staged_groups_price_like_group_columns(self, rng, monkeypatch, shape):
        """Each message's distinct ``(window, key)`` count is the number of
        group columns ``group_reduce`` builds for it, so every state-byte
        charge, and with it simulated time, is the one before staging."""
        from repro.baselines.transfer import _CountRuns
        from repro.core.aggregations import group_reduce
        from repro.state.crdt import crdt_by_name

        monkeypatch.setattr(_CountRuns, "FOLD_ROWS", 64)
        crdt = crdt_by_name("count")
        runs = _CountRuns()
        for _ in range(40):
            wins, keys = message(rng, shape, int(rng.integers(1, 300)), 200)
            assert runs.stage(wins, keys) == len(group_reduce(crdt, wins, keys, None)[1])

    def test_empty_fold_is_a_noop(self):
        from repro.baselines.transfer import _CountRuns

        state = {("w", 1): 2}
        _CountRuns().fold_into(state)
        assert state == {("w", 1): 2}


class TestBufferFloor:
    """A buffer must hold a footer, a message header and one record: RO's
    16 B record needs 80 B, refused before any simulation below that."""

    @pytest.mark.parametrize("bench_cls", [SlashTransferBench, UpParTransferBench])
    def test_a_buffer_below_one_message_is_a_config_error(self, bench_cls):
        with pytest.raises(ConfigError, match="need at least 80 B"):
            bench_cls(threads=2, buffer_bytes=79).run(RO(200))

    @pytest.mark.parametrize("bench_cls", [SlashTransferBench, UpParTransferBench])
    def test_a_buffer_of_one_message_runs(self, bench_cls):
        workload = ReadOnlyWorkload(records_per_thread=200, key_range=50, batch_records=100)
        result = bench_cls(threads=2, buffer_bytes=80).run(workload)
        assert result.records == 400
        assert sum(result.state.values()) == 400
