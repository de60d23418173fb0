"""Production traffic: sessionized per-user streams with arrival storms.

The grid layer's ``traffic-slo`` suite needs input that looks like a
production ingest feed rather than a benchmark generator: users arrive
in *sessions* (bursts of consecutive events by one user), the user
population is multi-tenant and Zipf-hot (a few whale users and their
tenants dominate), the offered rate carries a diurnal/flash-crowd
envelope, and the arrival order is imperfect — a bounded fraction of
records shows up late (within a declared bound) or duplicated.

:class:`SessionizedWorkload` generates exactly that, on top of the same
:class:`~repro.workloads.base.Workload` protocol every benchmark uses:

* **sessions** — user ids are assigned in geometric-length runs over
  globally monotone base timestamps, so each user's events are ordered
  (per-key ordering holds by construction) while the stream interleaves
  sessions the way a multiplexed ingest pipe does;
* **late storm** — exactly ``round(late_frac * n)`` records are pulled
  back by at most ``late_by_ms``; the query declares the same bound as
  its out-of-orderness allowance, so lateness is bounded by contract;
* **duplicate storm** — exactly ``round(dup_frac * n)`` records are
  byte-identical copies of their predecessor (an at-least-once redelivery
  burst), keeping the per-thread record count and the weak-scaling
  accounting intact;
* **burst envelope** — event-time density follows
  :func:`~repro.workloads.distributions.burst_envelope`, compressing
  timestamps inside the flash-crowd window the way real arrival
  timestamps bunch up under load.

The query is a per-user tumbling count (the sessionization lives in the
*data*, where admission control and shedding see it), so every engine
with plain windowed aggregation can run the suite.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError
from repro.core.query import Query
from repro.core.records import Schema
from repro.core.windows import TumblingWindow
from repro.workloads.base import Flow, Workload
from repro.workloads.distributions import (
    ZipfTable,
    burst_envelope,
    check_zipf_exponent,
    monotone_timestamps,
)

SESSION_SCHEMA = Schema(
    name="session_events",
    fields=(("ts", "i8"), ("key", "i8")),
    record_bytes=64,
)

WINDOW_MS = 60 * 1000  # per-minute per-user activity counts


def session_runs(
    count: int,
    mean_session_records: float,
    users: ZipfTable,
    rng: np.random.Generator,
) -> np.ndarray:
    """``count`` user ids assigned in geometric session-length runs.

    Each session draws one user from ``users`` (Zipf-hot unless the
    table is the uniform ``z = 0`` one) and emits a geometric number of
    consecutive events for them, mean ``mean_session_records`` — the
    classic sessionized clickstream shape.
    """
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    if mean_session_records < 1.0:
        raise ConfigError(
            f"mean_session_records must be >= 1, got {mean_session_records}"
        )
    # Enough sessions to cover `count` records even if every draw is 1
    # (geometric draws are >= 1, so `count` sessions always suffice).
    lengths = rng.geometric(1.0 / mean_session_records, size=count).astype(
        np.int64
    )
    sessions = int(np.searchsorted(np.cumsum(lengths), count) + 1)
    owners = users.draw(sessions, rng)
    return np.repeat(owners, lengths[:sessions])[:count]


def late_storm(
    timestamps: np.ndarray,
    late_frac: float,
    late_by_ms: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pull exactly ``round(late_frac * n)`` timestamps back, bounded.

    The input must be (weakly) monotone; each selected record's new
    timestamp trails the running maximum by at most ``late_by_ms`` —
    the storm's lateness is *within the declared bound by construction*.
    """
    if not 0.0 <= late_frac <= 1.0:
        raise ConfigError(f"late_frac must be in [0, 1], got {late_frac}")
    if late_by_ms < 0:
        raise ConfigError(f"late_by_ms must be >= 0, got {late_by_ms}")
    n = len(timestamps)
    k = int(round(late_frac * n))
    if k == 0 or late_by_ms == 0:
        return timestamps
    chosen = rng.choice(n, size=k, replace=False)
    jitter = rng.integers(1, late_by_ms + 1, size=k)
    shifted = timestamps.copy()
    shifted[chosen] = np.maximum(shifted[chosen] - jitter, 0)
    return shifted


def duplicate_storm(
    columns: dict,
    dup_frac: float,
    rng: np.random.Generator,
) -> dict:
    """Replace exactly ``round(dup_frac * n)`` records with redeliveries.

    Each selected record (never the first) becomes a byte-identical copy
    of its predecessor across *all* columns — an at-least-once source
    redelivering on a retry.  The record count is unchanged, so the
    weak-scaling accounting (``records_per_thread`` per worker) holds.
    """
    if not 0.0 <= dup_frac < 1.0:
        raise ConfigError(f"dup_frac must be in [0, 1), got {dup_frac}")
    n = len(next(iter(columns.values())))
    k = int(round(dup_frac * n))
    if k == 0 or n < 2:
        return columns
    chosen = rng.choice(np.arange(1, n), size=min(k, n - 1), replace=False)
    out = {}
    for name, col in columns.items():
        copied = col.copy()
        # Resolve runs of adjacent picks left-to-right so a copied record
        # propagates through a chain of redeliveries.
        for index in np.sort(chosen):
            copied[index] = copied[index - 1]
        out[name] = copied
    return out


class SessionizedWorkload(Workload):
    """Sessionized multi-tenant user streams with arrival storms."""

    name = "sessions"

    def __init__(
        self,
        records_per_thread: int = 4096,
        batch_records: int = 512,
        seed: int = 7,
        span_ms: int | None = None,
        users: int = 100_000,
        zipf_z: float = 0.0,
        mean_session_records: float = 8.0,
        windows: int = 4,
        late_frac: float = 0.0,
        late_by_ms: int = 0,
        dup_frac: float = 0.0,
        flash_at_frac: float | None = None,
        flash_magnitude: float = 2.0,
        diurnal_amplitude: float = 0.0,
    ):
        check_zipf_exponent(zipf_z)
        self.users = users
        self.zipf_z = zipf_z
        self.mean_session_records = mean_session_records
        self.windows = windows
        self.late_frac = late_frac
        self.late_by_ms = late_by_ms
        self.dup_frac = dup_frac
        self.flash_at_frac = flash_at_frac
        self.flash_magnitude = flash_magnitude
        self.diurnal_amplitude = diurnal_amplitude
        super().__init__(records_per_thread, batch_records, seed, span_ms)

    @property
    def default_span_ms(self) -> int:
        return self.windows * WINDOW_MS

    def build_query(self) -> Query:
        query = Query("sessions")
        (
            query.stream(
                "events", SESSION_SCHEMA, disorder_ms=self.late_by_ms
            )
            .project("ts", "key")
            .aggregate(TumblingWindow(WINDOW_MS), agg="count")
        )
        return query

    def _timestamps(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.flash_at_frac is None and self.diurnal_amplitude == 0.0:
            return monotone_timestamps(n, self.span_ms, rng)
        # Burst-shaped event-time density: warp a unit-rate arrival
        # schedule by the envelope, rescale onto the span, and add the
        # index so the base remains strictly monotone.
        envelope = burst_envelope(
            n,
            diurnal_amplitude=self.diurnal_amplitude,
            flash_at_frac=self.flash_at_frac,
            flash_magnitude=self.flash_magnitude,
        )
        noisy = envelope * rng.uniform(0.5, 1.5, size=n)
        instants = np.cumsum(1.0 / noisy)
        instants -= instants[0]
        span = max(self.span_ms - n, 1)
        scaled = np.floor(
            instants / (instants[-1] + 1e-12) * span
        ).astype(np.int64)
        return scaled + np.arange(n, dtype=np.int64)

    def _flow(self, node: int, thread: int) -> Flow:
        rng = self._generator("flow", node, thread)
        n = self.records_per_thread
        timestamps = self._timestamps(n, rng)
        keys = session_runs(
            n, self.mean_session_records,
            self._zipf_table(self.users, self.zipf_z),
            self._generator("sessions", node, thread),
        )
        if self.late_frac > 0 and self.late_by_ms > 0:
            timestamps = late_storm(
                timestamps, self.late_frac, self.late_by_ms,
                self._generator("late", node, thread),
            )
        columns = {"ts": timestamps, "key": keys}
        if self.dup_frac > 0:
            columns = duplicate_storm(
                columns, self.dup_frac, self._generator("dup", node, thread)
            )
        return list(self._batches(SESSION_SCHEMA, "events", **columns))
