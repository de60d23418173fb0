"""Scale regression: the full acceptance run at real state sizes.

The forwarding-window protocol has two failure modes that only appear
once per-thread backlogs are deep enough for shipper threads to close
channels behind their own final cuts and for direct deltas to overtake
relays (see test_coordinator_units for the unit-level pins).  This runs
the headline experiment at the acceptance scale and checks the paper's
claim end to end: fluid's migration-window p99 is strictly below
all-at-once's at equal state size, and both strategies are oracle-clean.
"""

from repro.harness.suites import run_elastic


def test_fluid_beats_all_at_once_at_scale():
    report = run_elastic(
        strategy="both",
        records_per_thread=20_000,
        seed=11,
    )
    rows = {row["strategy"]: row for row in report.rows}
    assert set(rows) == {"all-at-once", "fluid"}
    for row in rows.values():
        assert row["oracle_ok"] is True
        assert row["ownership_checks"] > 0
        assert row["moves_completed"] >= 1
        assert row["moved_bytes"] > 0
        assert row["window_p99_s"] > 0
    # The Megaphone effect: sub-moves amortise the stall.
    assert rows["fluid"]["window_p99_s"] < rows["all-at-once"]["window_p99_s"]
    assert any("Megaphone effect" in note for note in report.notes)
