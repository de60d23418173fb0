"""Property tests: the vectorized state hot path matches the scalar path.

The PR's batched fast path (``stable_hash_array``/``partition_array``
routing plus ``LogStructuredStore.absorb_many`` group-by) must be
*observationally identical* to the per-key scalar path — same hashes,
same partition ownership, same final store state — on both uniform and
heavily skewed (Zipf) key batches.
"""

import numpy as np
import pytest

from repro.state.crdt import SumCrdt
from repro.state.lss import LogStructuredStore
from repro.state.partition import (
    KeyPartitioner,
    PartitionDirectory,
    stable_hash,
    stable_hash_array,
)
from repro.state.ssb import SlashStateBackend


BATCH_NAMES = ("edges", "negative", "uniform", "zipf")


@pytest.fixture(scope="session")
def key_batches(rng_tree):
    """Named (uniform, zipf, negative, adversarial) int64 key batches."""
    rng = rng_tree.generator("state", "hotpath-keys")
    uniform = rng.integers(0, 100_000, size=4096, dtype=np.int64)
    zipf = (rng.zipf(1.3, size=4096) % 100_000).astype(np.int64)
    negative = rng.integers(-(2**62), 2**62, size=1024, dtype=np.int64)
    edges = np.array(
        [0, 1, -1, 2**63 - 1, -(2**63), 42, -42], dtype=np.int64
    )
    return {"uniform": uniform, "zipf": zipf, "negative": negative, "edges": edges}


@pytest.mark.parametrize("batch_name", BATCH_NAMES)
def test_stable_hash_array_matches_scalar(key_batches, batch_name):
    keys = key_batches[batch_name]
    vectorized = stable_hash_array(keys)
    scalar = [stable_hash(int(k)) for k in keys.tolist()]
    assert vectorized.tolist() == scalar


@pytest.mark.parametrize("batch_name", BATCH_NAMES)
@pytest.mark.parametrize("partitions", [1, 4, 7, 16])
def test_partition_array_matches_scalar(key_batches, batch_name, partitions):
    keys = key_batches[batch_name]
    partitioner = KeyPartitioner(partitions)
    vectorized = partitioner.partition_array(keys)
    scalar = [partitioner.partition_of(int(k)) for k in keys.tolist()]
    assert vectorized.tolist() == scalar
    assert vectorized.min() >= 0 and vectorized.max() < partitions


def _pairs_from(keys: np.ndarray, windows: int = 8):
    """Zipf/uniform keys -> ((window, key), partial) state pairs."""
    return [
        ((int(k) % windows, int(k)), float(i % 13) + 1.0)
        for i, k in enumerate(keys.tolist())
    ]


@pytest.mark.parametrize("batch_name", ["uniform", "zipf"])
def test_absorb_many_matches_scalar_absorb(key_batches, batch_name):
    pairs = _pairs_from(key_batches[batch_name])
    split = len(pairs) // 2

    batched = LogStructuredStore(SumCrdt(), name="batched")
    reference = LogStructuredStore(SumCrdt(), name="reference")

    # First half, then freeze the boundary so the second half exercises
    # the copy-on-write path for recurring keys.
    batched.absorb_many(pairs[:split])
    for key, partial in pairs[:split]:
        reference.absorb(key, partial)
    batched.mark_readonly()
    reference.mark_readonly()
    batched.absorb_many(pairs[split:])
    for key, partial in pairs[split:]:
        reference.absorb(key, partial)

    assert dict(batched.scan()) == dict(reference.scan())
    assert len(batched) == len(reference)
    assert batched.index.lookups == reference.index.lookups
    assert batched.index.inserts == reference.index.inserts
    assert sorted(batched.delta_pairs()) == sorted(reference.delta_pairs())


@pytest.mark.parametrize("batch_name", ["uniform", "zipf"])
def test_absorb_batch_matches_scalar_routing(key_batches, batch_name):
    pairs = _pairs_from(key_batches[batch_name])
    partials = {}
    for key, partial in pairs:
        partials[key] = partials.get(key, 0.0) + partial

    directory = PartitionDirectory(4)
    batched = SlashStateBackend(0, directory).handle("op", SumCrdt())
    reference = SlashStateBackend(0, PartitionDirectory(4)).handle("op", SumCrdt())

    windows = np.array([window for window, _key in partials], dtype=np.int64)
    group_keys = np.array([key for _window, key in partials], dtype=np.int64)
    touched = batched.absorb_batch(windows, group_keys, np.array(list(partials.values())))
    for key, partial in partials.items():
        reference.absorb(key, partial)

    assert touched == sorted(set(windows.tolist()))
    for partition in range(4):
        assert list(batched.store_for(partition).scan()) == list(
            reference.store_for(partition).scan()
        ), f"partition {partition} diverged"


def test_absorb_batch_string_keys_fall_back_to_scalar_path():
    """Non-integer group keys must route through the scalar partitioner."""
    partials = {f"user-{i}": float(i) for i in range(257)}
    directory = PartitionDirectory(4)
    batched = SlashStateBackend(0, directory).handle("op", SumCrdt())
    reference = SlashStateBackend(0, PartitionDirectory(4)).handle("op", SumCrdt())

    assert batched.absorb_batch(None, list(partials), list(partials.values())) == []
    for key, partial in partials.items():
        reference.absorb(key, partial)

    for partition in range(4):
        assert list(batched.store_for(partition).scan()) == list(
            reference.store_for(partition).scan()
        )


def test_ship_delta_resets_fragment_like_before():
    """The truncating ship keeps the documented post-ship semantics:
    shipped keys are dropped and the next RMW restarts from zero."""
    store = LogStructuredStore(SumCrdt())
    store.absorb_many([(k, 1.0) for k in range(10)])
    keys, _windows, _payloads, nbytes = store.ship_delta()
    assert sorted(keys) == list(range(10))
    assert nbytes > 0
    assert len(store) == 0
    assert store.delta_pairs() == []
    # Post-ship RMW restarts from the CRDT zero.
    store.absorb(3, 5.0)
    assert store.get(3) == 5.0


@pytest.mark.parametrize("keys", [
    ["12", "7", "1003", "5"],   # strings an int64 conversion would accept
    [3, "3", 4, "x"],           # mixed
    [2**64 + 3, 5, -7],         # an int past int64
], ids=["numeric-strings", "mixed", "wide-int"])
def test_batched_routing_agrees_with_scalar_lookup(keys):
    """A batch's group keys land where the scalar ``partition_of`` looks
    them up, whatever their type: only exact Python ints take the
    vectorised hash."""
    directory = PartitionDirectory(4)
    handle = SlashStateBackend(0, directory).handle("op", SumCrdt())
    partials = np.arange(1.0, len(keys) + 1.0)
    handle.absorb_batch(np.zeros(len(keys), dtype=np.int64), keys, partials)
    assert handle._partitions_of(keys).tolist() == [
        directory.partitioner(key) for key in keys
    ]
    assert [handle.get_local((0, key)) for key in keys] == partials.tolist()
