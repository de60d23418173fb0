"""Figures 9-10: top-down micro-architecture breakdowns.

Paper claims reproduced in shape (Sec. 8.3.3-8.3.4):
* RO (Fig. 9): the UpPar *receiver* is core-bound (pause-spinning on a
  sender that cannot keep up); the Slash *sender* is core-bound
  (waiting on a saturated network); the Slash receiver's stalls are
  memory-flavoured rather than front-end;
* YSB (Fig. 10): Slash is primarily memory-bound (RMWs against state)
  with a healthy retiring share; the UpPar sender shows the largest
  front-end-stall share of any role (its branchy partitioning logic).
"""

import pytest

from conftest import figure, register_report
from repro.simnet.counters import CycleCategory


@pytest.mark.benchmark(group="fig9-10")
def test_fig9_breakdown_ro(benchmark):
    report = benchmark.pedantic(
        lambda: figure("fig9", {"threads": (2, 10)}, records_per_thread=120_000),
        rounds=1,
        iterations=1,
    )
    register_report("fig9_breakdown_ro", report.render())

    for row in report.rows:
        if row["system"] == "uppar":
            # The receiver pause-spins waiting on the slow sender.
            receiver = row["receiver"]
            stalls = {k: v for k, v in receiver.items() if k != CycleCategory.RETIRING}
            assert max(stalls, key=stalls.get) == CycleCategory.CORE
            # The sender's busy work is front-end-heavy partitioning.
            sender = row["sender"]
            assert sender[CycleCategory.FRONTEND] > receiver[CycleCategory.FRONTEND]
        if row["system"] == "slash" and row["threads"] == 10:
            # With the link saturated, the Slash sender waits (pause).
            sender = row["sender"]
            stalls = {k: v for k, v in sender.items() if k != CycleCategory.RETIRING}
            assert max(stalls, key=stalls.get) == CycleCategory.CORE


@pytest.mark.benchmark(group="fig9-10")
def test_fig10_breakdown_ysb(benchmark):
    report = benchmark.pedantic(
        lambda: figure("fig10", threads=10, records_per_thread=6_000),
        rounds=1,
        iterations=1,
    )
    register_report("fig10_breakdown_ysb", report.render())

    shares = {row["system"]: row for row in report.rows}
    slash_busy = shares["slash"]["busy"]["slash (whole)"]
    # Slash: memory-bound with a healthy retiring share (paper: ~20 %).
    stalls = {k: v for k, v in slash_busy.items() if k != CycleCategory.RETIRING}
    assert max(stalls, key=stalls.get) == CycleCategory.MEMORY
    assert slash_busy[CycleCategory.RETIRING] > 0.10
    # UpPar sender: largest front-end share of any role (partitioning).
    uppar_sender_busy = shares["uppar"]["busy"]["uppar sender"]
    assert uppar_sender_busy[CycleCategory.FRONTEND] > slash_busy[CycleCategory.FRONTEND]
    # UpPar receiver: core-bound once waits count (pause-spinning).
    uppar_receiver_full = shares["uppar"]["full"]["uppar receiver"]
    full_stalls = {
        k: v for k, v in uppar_receiver_full.items() if k != CycleCategory.RETIRING
    }
    assert max(full_stalls, key=full_stalls.get) == CycleCategory.CORE
