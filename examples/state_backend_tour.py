#!/usr/bin/env python3
"""A guided tour of the Slash State Backend API (paper Sec. 7).

Demonstrates, without an engine in the way, the exact mechanics the
executor uses: eager fragment updates, the hybrid log's delta region,
epoch shipping with CRDT merging at the leader, vector-clock gated
triggering, and custom partition leadership.

Run:  python examples/state_backend_tour.py
"""

from repro.state.crdt import SumCrdt
from repro.state.partition import PartitionDirectory
from repro.state.ssb import SlashStateBackend


def banner(text: str) -> None:
    print(f"\n--- {text} ---")


def main() -> None:
    # A 3-executor deployment; executor i leads partition i.
    directory = PartitionDirectory(3)
    backends = [SlashStateBackend(e, directory) for e in range(3)]
    handles = [b.handle("tour.agg", SumCrdt()) for b in backends]

    banner("1. eager partial state (no re-partitioning)")
    # All three executors update the SAME logical key concurrently —
    # each into its local fragment/primary, no coordination.
    # State keys are (window id, group key); window ids are integers, as
    # every window assigner produces them.
    key = (0, 42)
    for backend, handle, amount in zip(backends, handles, (10, 20, 12)):
        handle.update(key, amount)
        backend.observe_watermark(1000.0)
    owner = directory.leader_of_key(42)
    print(f"key {key} is owned by partition/leader {owner}")
    for e, handle in enumerate(handles):
        print(f"  executor {e} local payload: {handle.get_local(key)}")

    banner("2. epoch boundary: helpers ship hybrid-log deltas")
    for e, handle in enumerate(handles):
        for delta in handle.collect_deltas():
            print(
                f"  executor {e} ships partition {delta.partition} "
                f"epoch {delta.epoch}: {len(delta.pairs)} pairs, "
                f"{delta.nbytes} B, watermark {delta.watermark}"
            )
            handles[directory.leader_of_partition(delta.partition)].merge_delta(delta)

    banner("3. the leader's merged view (CRDT sum of all partials)")
    merged = dict(zip(*handles[owner].scan_columns()))
    print(f"  leader {owner} sees {key} = {merged[key]} (10 + 20 + 12)")

    banner("4. vector clock gates triggering (property P1)")
    clock = backends[owner].clock
    print(f"  clock at leader: {clock}")
    print(f"  can fire a window ending at t=1000? {clock.all_past(1000.0)}")
    print(f"  ...ending at t=1001? {clock.all_past(1001.0)}")

    banner("5. event-time trigger: extract and finish the window")
    keys, payloads = handles[owner].pop_window_columns(0)
    results = {key: payload for (_window, key), payload in zip(keys, payloads)}
    print(f"  emitted: {results}")

    banner("6. custom leadership: one dedicated state node")
    disagg = PartitionDirectory(3, leaders=[0, 0, 0])
    print(f"  partitions led by executor 0: {disagg.partitions_led_by(0)}")
    print(f"  partitions led by executor 1: {disagg.partitions_led_by(1)}")
    print("  (executors 1-2 become pure compute helpers; see")
    print("   tests/integration/test_custom_leadership.py for the full run)")


if __name__ == "__main__":
    main()
