"""Properties of the production-traffic generators (seeded rngs).

The storm transforms promise exact, bounded distortion: the late storm
never exceeds its declared lateness bound (the query's out-of-orderness
allowance), the duplicate storm replaces an exact record count with
byte-identical redeliveries, and sessionization keeps every user's
events in order.  The properties hold for *every* seed, so the checks
draw from the session `rng` fixture (sweep with `REPRO_TEST_SEED`).
"""

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.workloads.distributions import ZipfTable
from repro.workloads.traffic import (
    SessionizedWorkload,
    duplicate_storm,
    late_storm,
    session_runs,
)


def _monotone(n, rng, span=10_000):
    base = np.sort(rng.integers(0, span, size=n)).astype(np.int64)
    return base


# -- late storm --------------------------------------------------------------

@pytest.mark.parametrize("late_frac", [0.01, 0.05, 0.25])
@pytest.mark.parametrize("late_by_ms", [1, 50, 2000])
def test_late_storm_lateness_within_declared_bound(rng, late_frac, late_by_ms):
    timestamps = _monotone(5000, rng)
    shifted = late_storm(timestamps, late_frac, late_by_ms, rng)
    # Lateness is measured against the running watermark (the max of all
    # earlier *original* timestamps, which the storm never raises).
    watermark = np.maximum.accumulate(shifted)
    lateness = watermark - shifted
    assert int(lateness.max()) <= late_by_ms
    # And no record moved forward: shedding lateness only.
    assert (shifted <= timestamps).all()


@pytest.mark.parametrize("late_frac", [0.0, 0.02, 0.1])
def test_late_storm_moves_exact_fraction(rng, late_frac):
    timestamps = np.arange(4000, dtype=np.int64) * 10 + 10_000
    shifted = late_storm(timestamps, late_frac, 500, rng)
    moved = int((shifted != timestamps).sum())
    assert moved == round(late_frac * len(timestamps))


def test_late_storm_validates_inputs(rng):
    timestamps = _monotone(10, rng)
    with pytest.raises(ConfigError, match="late_frac"):
        late_storm(timestamps, 1.5, 10, rng)
    with pytest.raises(ConfigError, match="late_by_ms"):
        late_storm(timestamps, 0.1, -1, rng)


# -- duplicate storm ---------------------------------------------------------

@pytest.mark.parametrize("dup_frac", [0.0, 0.02, 0.1])
def test_duplicate_storm_fraction_exact(rng, dup_frac):
    n = 5000
    columns = {
        "ts": np.arange(n, dtype=np.int64),
        "key": rng.integers(0, 100, size=n).astype(np.int64),
    }
    out = duplicate_storm(dict(columns), dup_frac, rng)
    # ts was strictly increasing, so every redelivered record is exactly
    # a repeat of its predecessor's timestamp.
    dupes = int((np.diff(out["ts"]) == 0).sum())
    assert dupes == round(dup_frac * n)
    assert len(out["ts"]) == n  # record count unchanged


def test_duplicate_storm_copies_all_columns_together(rng):
    n = 2000
    columns = {
        "ts": np.arange(n, dtype=np.int64),
        "key": rng.integers(0, 50, size=n).astype(np.int64),
    }
    out = duplicate_storm(dict(columns), 0.05, rng)
    dup_positions = np.flatnonzero(np.diff(out["ts"]) == 0) + 1
    assert len(dup_positions) > 0
    for index in dup_positions:
        assert out["key"][index] == out["key"][index - 1]


def test_duplicate_storm_validates_fraction(rng):
    with pytest.raises(ConfigError, match="dup_frac"):
        duplicate_storm({"ts": np.arange(10)}, 1.0, rng)


# -- sessionization ----------------------------------------------------------

def test_session_runs_cover_count_and_user_range(rng):
    keys = session_runs(3000, 8.0, ZipfTable(500, 1.1), rng)
    assert len(keys) == 3000
    assert keys.min() >= 0 and keys.max() < 500


def test_session_runs_rejects_sub_unit_mean(rng):
    with pytest.raises(ConfigError, match="mean_session_records"):
        session_runs(100, 0.5, ZipfTable(10, 0.0), rng)


def test_sessionized_streams_per_key_ordered():
    """Without storms, each user's events are in timestamp order in every
    generated flow — sessions are contiguous runs over monotone time."""
    workload = SessionizedWorkload(
        records_per_thread=2000, batch_records=500, seed=77,
        users=200, zipf_z=1.0, mean_session_records=6.0,
    )
    for node in range(2):
        for thread in range(2):
            flow = workload._flow(node, thread)
            ts = np.concatenate([batch.col("ts") for _s, batch in flow])
            keys = np.concatenate([batch.col("key") for _s, batch in flow])
            for key in np.unique(keys):
                per_key = ts[keys == key]
                assert (np.diff(per_key) >= 0).all()


def test_sessionized_workload_deterministic_per_seed():
    first = SessionizedWorkload(
        records_per_thread=1000, batch_records=250, seed=11,
        zipf_z=0.8, late_frac=0.05, late_by_ms=500, dup_frac=0.02,
    )
    second = SessionizedWorkload(
        records_per_thread=1000, batch_records=250, seed=11,
        zipf_z=0.8, late_frac=0.05, late_by_ms=500, dup_frac=0.02,
    )
    for (_sa, batch_a), (_sb, batch_b) in zip(
        first._flow(0, 0), second._flow(0, 0)
    ):
        assert (batch_a.col("ts") == batch_b.col("ts")).all()
        assert (batch_a.col("key") == batch_b.col("key")).all()


def test_sessionized_workload_late_storm_respects_declared_disorder():
    workload = SessionizedWorkload(
        records_per_thread=3000, batch_records=500, seed=5,
        late_frac=0.1, late_by_ms=1000,
    )
    assert workload.build_query().streams[0].disorder_ms == 1000
    flow = workload._flow(0, 0)
    ts = np.concatenate([batch.col("ts") for _s, batch in flow])
    watermark = np.maximum.accumulate(ts)
    assert int((watermark - ts).max()) <= 1000
