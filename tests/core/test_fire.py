"""Seeded walks of the shared window fires against a plain-dict reference.

``core/fire.py`` fires every engine's windows from columnar stores.  The
reference below is the engines' former dict code, kept here apart from
its cost calls: window state in one ``dict`` per store keyed by
``(window, key)`` (insertion order); aggregate fires that scan each dict
once per slice, store by store, merge each key's partials across them
and pop the first slice (LightSaber's late merge over its thread-local
dicts; with one dict and a tumbling window, the partitioned consumer's
pop); join fires that pop and probe; and session fires that overwrite
or delete each emitting key.

Each walk draws absorbs (into one of 1–4 stores for aggregates), fires
and session rewrites from the per-test ``rng`` (``REPRO_TEST_SEED``
moves it) and, after every step, compares every store's live pairs, the
results and the arguments of every charge — ``(count, folded)`` for an
aggregate fire, ``(count,)`` otherwise — with the reference *in order*.
Every charge also checks that the fire wrote all of its results before
it charged.
"""

from itertools import compress
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.fire import ExecutorResults, fire_aggregate, fire_join, fire_sessions
from repro.core.join import SessionTrigger, probe_window, two_sided
from repro.core.windows import SessionWindows, SlidingWindow, TumblingWindow
from repro.state.crdt import crdt_by_name
from repro.state.lss import LogStructuredStore
from repro.state.ssb import state_keys

STEPS = 300
WINDOWS = 8
KEYS = 12


class DictReference:
    """The engines' former dict states and fire bodies."""

    def __init__(self, crdt, window, stores=1):
        self.crdt = crdt
        self.window = window
        self.states: list[dict] = [{} for _ in range(stores)]
        self.state = self.states[0]
        self._last_contribution: dict = {}
        self.results_aggregates: dict = {}
        self.results_joins: list = []
        self.emitted = 0
        self.trigger_events: list = []
        self.charges: list = []
        if isinstance(window, SessionWindows):
            self.session_trigger = SessionTrigger(window)

    def absorb(self, partials: dict, now: float, store: int = 0) -> None:
        state = self.states[store]
        for key, partial in partials.items():
            if key in state:
                state[key] = self.crdt.merge(state[key], partial)
            else:
                state[key] = partial
            if isinstance(key, tuple):
                self._last_contribution[key[0]] = now

    def _note_fire(self, window_id, now):
        last = self._last_contribution.pop(window_id, now)
        self.trigger_events.append((now, now - last))

    def fire_agg(self, window_id: int, now: float) -> None:
        crdt = self.crdt
        merged: dict = {}
        folded = 0
        for state in self.states:
            for slice_id in self.window.slices_of_window(window_id):
                for (sid, key), payload in list(state.items()):
                    if sid == slice_id:
                        folded += 1
                        merged[key] = (
                            crdt.merge(merged[key], payload) if key in merged else payload
                        )
            for (sid, key) in [k for k in state if k[0] == window_id]:
                del state[(sid, key)]
        if not merged:
            return
        self._note_fire(window_id, now)
        self.charges.append((len(merged), folded))
        for key, payload in merged.items():
            self.results_aggregates[(window_id, key)] = crdt.finish(payload)
        self.emitted += len(merged)

    def fire_join(self, window_id: int, now: float) -> None:
        extracted = {
            key: self.state.pop((win, key))
            for win, key in [k for k in self.state if k[0] == window_id]
        }
        if extracted:
            self._note_fire(window_id, now)
        produced = 0
        for key, payload in compress(extracted.items(), two_sided(list(extracted.values()))):
            for left_row, right_row in probe_window(payload):
                self.results_joins.append((window_id, key, left_row, right_row))
                produced += 1
        if produced:
            self.charges.append((produced,))
        self.emitted += produced

    def trigger_sessions(self, frontier: float) -> None:
        produced = 0
        for key, emitted, remaining in self.session_trigger.fire(
            list(self.state), list(self.state.values()), frontier
        ):
            produced += len(emitted)
            for left_row, right_row in emitted:
                self.results_joins.append((key, left_row, right_row))
            if remaining:
                self.state[key] = remaining
            else:
                del self.state[key]
        if produced:
            self.charges.append((produced,))
        self.emitted += produced


class StoreWalker:
    """The store side: the fire functions on ``LogStructuredStore``s."""

    def __init__(self, crdt, window, stores=1):
        self.plan = SimpleNamespace(crdt=crdt, window=window)
        self.stores = [LogStructuredStore(crdt, name=f"walk{i}") for i in range(stores)]
        self.store = self.stores[0]
        self.results = ExecutorResults()
        self._last_contribution: dict = {}
        self.charges: list = []
        if isinstance(window, SessionWindows):
            self.session_trigger = SessionTrigger(window)

    def absorb(self, windows, keys, partials, now: float, store: int = 0) -> None:
        self.stores[store].absorb_columns(state_keys(windows, keys), windows, partials)
        if windows is not None:
            self._last_contribution.update(dict.fromkeys(np.unique(windows).tolist(), now))

    def charge(self, *counts: int):
        results = self.results
        self.charges.append(counts)
        # Atomic fire: everything this fire emits is already written.
        self._at_charge = (results.emitted, len(results.aggregates), len(results.join_pairs))
        yield from ()

    def drive(self, fire):
        self._at_charge = None
        try:
            while True:
                next(fire)
        except StopIteration as stop:
            if self._at_charge is not None:
                results = self.results
                assert self._at_charge == (
                    results.emitted, len(results.aggregates), len(results.join_pairs)
                )
            return stop.value

    def fire_agg(self, window_id: int, now: float) -> None:
        fired = self.drive(
            fire_aggregate(
                self.stores, self.plan, window_id, now, self.results,
                self._last_contribution, self.charge,
            )
        )
        assert fired == (self.charges[-1][0] if self._at_charge else 0)

    def fire_join(self, window_id: int, now: float) -> None:
        self.drive(
            fire_join(
                self.store, window_id, now, self.results,
                self._last_contribution, self.charge,
            )
        )

    def trigger_sessions(self, frontier: float) -> None:
        self.drive(
            fire_sessions(
                self.store, self.session_trigger, frontier, self.results, self.charge
            )
        )


def assert_same(walker: StoreWalker, reference: DictReference, step: str) -> None:
    results = walker.results
    assert [list(store.scan()) for store in walker.stores] == [
        list(state.items()) for state in reference.states
    ], step
    assert list(results.aggregates.items()) == list(reference.results_aggregates.items()), step
    assert results.join_pairs == reference.results_joins, step
    assert results.emitted == reference.emitted, step
    assert walker.charges == reference.charges, step
    if not isinstance(reference.window, SessionWindows):
        assert results.trigger_events == reference.trigger_events, step


def group_columns(rng, crdt, window_slots: int, make_partial):
    """One batch's distinct groups, sorted by (window, key) as a reduction yields them."""
    groups = sorted(
        {
            (int(rng.integers(0, window_slots)), int(rng.integers(0, KEYS)))
            for _ in range(int(rng.integers(1, 10)))
        }
    )
    windows = np.array([window for window, _key in groups], dtype=np.int64)
    keys = np.array([key for _window, key in groups], dtype=np.int64)
    partials = [make_partial() for _ in groups]
    if crdt.column is not None:
        partials = np.array(partials, dtype=crdt.column.dtype)
    return windows, keys, partials


def walk(rng, crdt, window, fire_name, make_partial, window_slots, stores=1):
    walker = StoreWalker(crdt, window, stores)
    reference = DictReference(crdt, window, stores)
    for step in range(STEPS):
        now = float(step)
        if rng.random() < 0.6:
            windows, keys, partials = group_columns(rng, crdt, window_slots, make_partial)
            listed = partials.tolist() if isinstance(partials, np.ndarray) else partials
            store = int(rng.integers(0, stores))
            reference.absorb(dict(zip(state_keys(windows, keys), listed)), now, store)
            walker.absorb(windows, keys, partials, now, store)
        else:
            window_id = int(rng.integers(0, window_slots))
            getattr(reference, fire_name)(window_id, now)
            getattr(walker, fire_name)(window_id, now)
        assert_same(walker, reference, f"step {step}")
    return walker


AGGREGATES = [
    ("sum", TumblingWindow(10)),
    ("count", TumblingWindow(10)),
    ("avg", TumblingWindow(10)),
    ("sum", SlidingWindow(40, 10)),
    ("max", SlidingWindow(30, 10)),
    ("avg", SlidingWindow(20, 10)),
]


AGGREGATE_IDS = [f"{n}-{type(w).__name__}" for n, w in AGGREGATES]


def aggregate_walk(rng, name, window, stores):
    crdt = crdt_by_name(name)

    def make_partial():
        return crdt.update(crdt.zero(), float(np.round(rng.uniform(-5, 5), 2)))

    walker = walk(rng, crdt, window, "fire_agg", make_partial, WINDOWS, stores)
    assert walker.results.aggregates
    if stores > 1 or isinstance(window, SlidingWindow):
        # Some fire merged one key's partials from two stores or slices.
        assert any(folded > count for count, folded in walker.charges)


@pytest.mark.parametrize("name, window", AGGREGATES, ids=AGGREGATE_IDS)
def test_aggregate_fires_match_the_dict_reference(rng, name, window):
    """One store: Slash's handle, an UpPar consumer, one LightSaber thread."""
    aggregate_walk(rng, name, window, stores=1)


@pytest.mark.parametrize("stores", [2, 3, 4])
@pytest.mark.parametrize("name, window", AGGREGATES, ids=AGGREGATE_IDS)
def test_aggregate_fires_over_thread_stores_match_the_dict_reference(
    rng, name, window, stores
):
    """Several stores: LightSaber's late merge over its worker threads."""
    aggregate_walk(rng, name, window, stores)


def test_join_fires_match_the_dict_reference(rng):
    crdt = crdt_by_name("append")
    rows = iter(range(10**6))

    def make_partial():
        return tuple(
            (int(rng.integers(0, 2)), (next(rows),))
            for _ in range(int(rng.integers(1, 4)))
        )

    walker = walk(rng, crdt, TumblingWindow(10), "fire_join", make_partial, WINDOWS)
    assert walker.results.join_pairs


def test_session_fires_match_the_dict_reference(rng):
    crdt = crdt_by_name("append")
    window = SessionWindows(gap_ms=5)
    walker = StoreWalker(crdt, window)
    reference = DictReference(crdt, window)
    clock = 0.0
    rows = iter(range(10**6))
    for step in range(STEPS):
        if rng.random() < 0.6:
            keys = np.unique(rng.integers(0, KEYS, size=int(rng.integers(1, 6))))
            partials = []
            for _key in keys:
                entries = []
                for _ in range(int(rng.integers(1, 4))):
                    clock += float(rng.integers(0, 4))
                    entries.append((clock, int(rng.integers(0, 2)), (next(rows),)))
                partials.append(tuple(entries))
            reference.absorb(dict(zip(keys.tolist(), partials)), clock)
            walker.absorb(None, keys, partials, clock)
        else:
            frontier = clock - float(rng.integers(0, 12))
            reference.trigger_sessions(frontier)
            walker.trigger_sessions(frontier)
        assert_same(walker, reference, f"step {step}")
    reference.trigger_sessions(float("inf"))
    walker.trigger_sessions(float("inf"))
    assert_same(walker, reference, "final")
    assert walker.results.join_pairs
