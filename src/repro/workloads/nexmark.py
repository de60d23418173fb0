"""NexMark benchmark workloads NB7, NB8, NB11 (paper Sec. 8.1.2).

The NexMark suite simulates a real-time auction platform with three
logical streams — auctions (269 B records), bids (32 B), and seller
events (206 B) — each carrying an 8-byte key and an 8-byte creation
timestamp.  The paper selects:

* **NB7** — a 60 s tumbling windowed aggregation over the bid stream
  (highest bid: MAX on price), with Pareto-distributed keys producing
  heavy hitters; small state, RMW update pattern;
* **NB8** — a 12 h tumbling window join of auctions and sellers (4:1
  record ratio, every auction has a valid seller); large state, append
  update pattern, large tuples;
* **NB11** — a session window join (gap-based) of bids and sellers;
  small tuples on the probe-heavy side.

Join flows interleave the two streams on a single per-worker timeline
cut into alternating time segments, so each flow's timestamps stay
strictly monotone (the watermark contract).
"""

from __future__ import annotations

import numpy as np

from repro.core.query import Query
from repro.core.records import Schema
from repro.core.windows import SessionWindows, TumblingWindow
from repro.workloads.base import Flow, Workload
from repro.workloads.distributions import (
    monotone_timestamps,
    pareto_keys,
    uniform_keys,
)

BID_SCHEMA = Schema(
    name="bids",
    fields=(("ts", "i8"), ("key", "i8"), ("price", "f8")),
    record_bytes=32,
)
AUCTION_SCHEMA = Schema(
    name="auctions",
    fields=(("ts", "i8"), ("key", "i8"), ("auction_id", "i8")),
    record_bytes=269,
)
SELLER_SCHEMA = Schema(
    name="sellers",
    fields=(("ts", "i8"), ("key", "i8"), ("rating", "i8")),
    record_bytes=206,
)

NB7_WINDOW_MS = 60_000
NB8_WINDOW_MS = 12 * 3600 * 1000
NB11_GAP_MS = 10_000

#: Auctions (or bids) per seller event, per the benchmark's 4:1 ratio.
JOIN_RATIO = 4


class Nexmark7Workload(Workload):
    """NB7: 60 s tumbling MAX(price) per key over bids, Pareto keys."""

    name = "nb7"

    def __init__(
        self,
        records_per_thread: int = 4096,
        batch_records: int = 512,
        seed: int = 7,
        span_ms: int | None = None,
        key_range: int = 1_000_000,
        windows: int = 4,
    ):
        self.key_range = key_range
        self.windows = windows
        super().__init__(records_per_thread, batch_records, seed, span_ms)

    @property
    def default_span_ms(self) -> int:
        return self.windows * NB7_WINDOW_MS

    def build_query(self) -> Query:
        query = Query("nb7")
        (
            query.stream("bids", BID_SCHEMA)
            .project("ts", "key", "price")
            .aggregate(TumblingWindow(NB7_WINDOW_MS), agg="max", value_field="price")
        )
        return query

    def _flow(self, node: int, thread: int) -> Flow:
        rng = self._generator("flow", node, thread)
        n = self.records_per_thread
        timestamps = monotone_timestamps(n, self.span_ms, rng)
        keys = pareto_keys(n, self.key_range, rng)
        prices = rng.uniform(1.0, 1000.0, size=n).round(2)
        return list(
            self._batches(BID_SCHEMA, "bids", ts=timestamps, key=keys, price=prices)
        )


class _JoinWorkload(Workload):
    """Shared machinery for the two join workloads.

    The per-worker timeline is cut into ``segments`` alternating slices:
    ``JOIN_RATIO`` slices of the left (high-rate) stream followed by one
    slice of sellers, repeating — giving the benchmark's 4:1 record ratio
    while keeping each flow's timestamps strictly monotone.
    """

    left_stream = "left"
    left_schema = BID_SCHEMA

    def __init__(
        self,
        records_per_thread: int = 4096,
        batch_records: int = 512,
        seed: int = 7,
        span_ms: int | None = None,
        sellers: int = 1024,
    ):
        self.sellers = sellers
        super().__init__(records_per_thread, batch_records, seed, span_ms)

    def _left_columns(self, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def _flow(self, node: int, thread: int) -> Flow:
        rng = self._generator("flow", node, thread)
        n = self.records_per_thread
        n_sellers = max(1, n // (JOIN_RATIO + 1))
        n_left = n - n_sellers
        timeline = monotone_timestamps(n, self.span_ms, rng)
        # Deal timestamps onto the two streams in alternating runs of
        # JOIN_RATIO left records then 1 seller record.
        pattern = np.arange(n) % (JOIN_RATIO + 1) == JOIN_RATIO
        seller_slots = np.flatnonzero(pattern)[:n_sellers]
        mask = np.zeros(n, dtype=bool)
        mask[seller_slots] = True
        # If rounding starved one side, hand leftover slots to sellers.
        missing = n_sellers - mask.sum()
        if missing > 0:
            spare = np.flatnonzero(~mask)[:missing]
            mask[spare] = True
        left_ts = timeline[~mask][:n_left]
        seller_ts = timeline[mask][:n_sellers]

        left_cols = self._left_columns(len(left_ts), rng)
        left_cols["ts"] = left_ts
        seller_keys = uniform_keys(len(seller_ts), self.sellers, rng)
        ratings = rng.integers(1, 6, size=len(seller_ts))

        left_items = list(
            self._batches(self.left_schema, self.left_stream, **left_cols)
        )
        seller_items = list(
            self._batches(
                SELLER_SCHEMA, "sellers", ts=seller_ts, key=seller_keys, rating=ratings
            )
        )
        return _merge_by_time(left_items, seller_items)


def _merge_by_time(a: Flow, b: Flow) -> Flow:
    """Merge two batch lists by their first timestamp (both monotone)."""
    merged: Flow = []
    i = j = 0
    while i < len(a) and j < len(b):
        ts_a = a[i][1].timestamps[0] if len(a[i][1]) else np.iinfo(np.int64).max
        ts_b = b[j][1].timestamps[0] if len(b[j][1]) else np.iinfo(np.int64).max
        if ts_a <= ts_b:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return merged


class Nexmark8Workload(_JoinWorkload):
    """NB8: 12 h tumbling window join of auctions and sellers."""

    name = "nb8"
    left_stream = "auctions"
    left_schema = AUCTION_SCHEMA

    def __init__(
        self,
        records_per_thread: int = 4096,
        batch_records: int = 512,
        seed: int = 7,
        span_ms: int | None = None,
        sellers: int = 1024,
        windows: int = 2,
    ):
        self.windows = windows
        super().__init__(records_per_thread, batch_records, seed, span_ms, sellers)

    @property
    def default_span_ms(self) -> int:
        return self.windows * NB8_WINDOW_MS

    def build_query(self) -> Query:
        query = Query("nb8")
        auctions = query.stream("auctions", AUCTION_SCHEMA)
        sellers = query.stream("sellers", SELLER_SCHEMA)
        auctions.join(sellers, TumblingWindow(NB8_WINDOW_MS))
        return query

    def _left_columns(self, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        return {
            "key": uniform_keys(n, self.sellers, rng),
            "auction_id": rng.integers(0, 1 << 40, size=n),
        }


class Nexmark11Workload(_JoinWorkload):
    """NB11: session window join of bids and sellers (gap 10 s)."""

    name = "nb11"
    left_stream = "bids"
    left_schema = BID_SCHEMA

    def __init__(
        self,
        records_per_thread: int = 4096,
        batch_records: int = 512,
        seed: int = 7,
        span_ms: int | None = None,
        sellers: int = 1024,
        gap_ms: int = NB11_GAP_MS,
        sessions: int = 6,
    ):
        self.gap_ms = gap_ms
        self.sessions = sessions
        super().__init__(records_per_thread, batch_records, seed, span_ms, sellers)

    @property
    def default_span_ms(self) -> int:
        # Enough span that multiple sessions close mid-run.
        return self.sessions * 5 * self.gap_ms

    def build_query(self) -> Query:
        query = Query("nb11")
        bids = query.stream("bids", BID_SCHEMA)
        sellers = query.stream("sellers", SELLER_SCHEMA)
        bids.join(sellers, SessionWindows(self.gap_ms))
        return query

    def _left_columns(self, n: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        return {
            "key": uniform_keys(n, self.sellers, rng),
            "price": rng.uniform(1.0, 1000.0, size=n).round(2),
        }
