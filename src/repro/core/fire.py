"""Window fires: the one place a window's state leaves a store for the results.

Every simulated engine fires its windows through these generators — Slash
on its :class:`~repro.state.ssb.OperatorStateHandle` (the partitions it
leads), UpPar and Flink consumers on their own
:class:`~repro.state.lss.LogStructuredStore`, LightSaber on one store per
worker thread.  Each offers the same five reads and writes:
``window_items``, ``pop_window_columns``, ``scan_columns``, ``replace``
and ``remove``.

What stays with the engine is its cost surface: it passes ``charge``, a
generator function that spends the simulated time of ``count`` emitted
results or probed pairs on its own core, at its own prices.  An aggregate
fire's charge also learns how many partials it folded, the price of a
late merge.

A fire is atomic: it writes its results before it charges.  A checkpoint
or snapshot captured while the charge passes simulated time therefore
holds every popped key either in the store or in the results, never in
neither (``tests/tools/test_single_fire_site.py`` keeps it so).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.core.join import SessionTrigger, probe_window, two_sided
from repro.core.pipeline import PhysicalPlan

#: ``charge(count)``: spend the simulated time of ``count`` results.
Charge = Callable[[int], Generator[Any, Any, None]]
#: ``charge(count, folded)``: spend the simulated time of ``count`` results
#: merged from ``folded`` partials.
FoldCharge = Callable[[int, int], Generator[Any, Any, None]]


@dataclass
class ExecutorResults:
    """What one executor or consumer emitted (its share of the output)."""

    aggregates: dict = field(default_factory=dict)
    join_pairs: list = field(default_factory=list)
    emitted: int = 0
    #: (fire time, lag) per fired window; the lag is the simulated seconds
    #: from the last ingested contribution to the window (cluster-wide
    #: max) to the fire.
    trigger_events: list = field(default_factory=list)

    def note_fire(self, window_id: int, last_contribution: dict, now: float) -> None:
        """Record one fired window's lag from its last ingest to ``now``."""
        self.trigger_events.append((now, now - last_contribution.pop(window_id, now)))


def trigger_metrics(results: Iterable[ExecutorResults]) -> dict:
    """A run's trigger-lag mean and max and its fires in time order (the
    elastic harness slices these into migration-window vs steady-state
    latency)."""
    events = [event for result in results for event in result.trigger_events]
    lags = [lag for _at, lag in events]
    return {
        "trigger_lag_mean_s": sum(lags) / len(lags) if lags else 0.0,
        "trigger_lag_max_s": max(lags) if lags else 0.0,
        "trigger_events": sorted(events),
    }


def fire_aggregate(
    stores: Sequence[Any],
    plan: PhysicalPlan,
    window_id: int,
    now: float,
    results: ExecutorResults,
    last_contribution: dict,
    charge: FoldCharge,
) -> Generator[Any, Any, int]:
    """Fire one aggregate window; return how many results it emitted.

    With one store, a tumbling window's popped ``(window, key)`` state
    keys are its result keys.  Otherwise the fire merges the partials of
    the window's slices key by key, in store order and then slice order,
    and pops each store's first slice, which no later window needs.
    """
    crdt = plan.crdt
    slice_ids = plan.window.slices_of_window(window_id)
    if len(stores) == 1 and len(slice_ids) == 1:
        keys, payloads = stores[0].pop_window_columns(window_id)
        folded = len(keys)
    else:
        merged: dict = {}
        folded = 0
        for store in stores:
            for slice_id in slice_ids:
                # The window's first slice is its own id.
                pairs = (
                    list(zip(*store.pop_window_columns(slice_id)))
                    if slice_id == window_id
                    else store.window_items(slice_id)
                )
                folded += len(pairs)
                for (_slice, key), payload in pairs:
                    merged[key] = crdt.merge(merged[key], payload) if key in merged else payload
        keys = list(zip(repeat(window_id), merged))
        payloads = list(merged.values())
    if not keys:
        return 0
    results.note_fire(window_id, last_contribution, now)
    if crdt.plain_finish:
        results.aggregates.update(zip(keys, payloads))
    else:
        results.aggregates.update(zip(keys, map(crdt.finish, payloads)))
    results.emitted += len(keys)
    yield from charge(len(keys), folded)
    return len(keys)


def fire_join(
    store: Any,
    window_id: int,
    now: float,
    results: ExecutorResults,
    last_contribution: dict,
    charge: Charge,
) -> Generator[Any, Any, None]:
    """Fire one join window: pop it and probe every two-sided key."""
    keys, payloads = store.pop_window_columns(window_id)
    if not keys:
        return
    results.note_fire(window_id, last_contribution, now)
    produced = 0
    # Only a key holding both sides can emit; the rest are never probed.
    for (_window, key), payload in compress(zip(keys, payloads), two_sided(payloads)):
        pairs = probe_window(payload)
        produced += len(pairs)
        results.join_pairs.extend(
            (window_id, key, left_row, right_row) for left_row, right_row in pairs
        )
    results.emitted += produced
    if produced:
        yield from charge(produced)


def fire_sessions(
    store: Any,
    trigger: SessionTrigger,
    frontier: float,
    results: ExecutorResults,
    charge: Charge,
) -> Generator[Any, Any, None]:
    """Emit every closed session up to ``frontier`` and rewrite its key."""
    produced = 0
    # A snapshot of the columns: the rewrites below mutate the store.
    keys, payloads = store.scan_columns()
    for key, emitted, remaining in trigger.fire(keys, payloads, frontier):
        produced += len(emitted)
        results.join_pairs.extend(
            (key, left_row, right_row) for left_row, right_row in emitted
        )
        if remaining:
            store.replace(key, remaining)
        else:
            store.remove(key)
    results.emitted += produced
    if produced:
        yield from charge(produced)
