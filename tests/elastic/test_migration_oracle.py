"""The migration-correctness oracle: migrated runs equal static runs.

Differential battery over rescale action × migration strategy × engine:
every live-migrated run must reproduce the static run's (window, key)
aggregates byte-for-byte (:func:`diff_results`), with the sanitizer's
``ownership-exactness`` invariant live throughout.  The exchange
(UpPar) analogue is covered by the same oracle.
"""

import pytest

from repro.runtime import Scenario, run_scenario
from repro.runtime.oracle import diff_results

RECORDS = 1500
SEED = 11


def base(engine, nodes=2, threads=4):
    return dict(
        engine=engine,
        workload="ysb",
        nodes=nodes,
        threads=threads,
        workload_overrides={"records_per_thread": RECORDS},
        seed=SEED,
    )


@pytest.fixture(scope="module")
def static_slash():
    return run_scenario(Scenario(**base("slash")))


@pytest.fixture(scope="module")
def static_uppar():
    return run_scenario(Scenario(**base("uppar")))


def migrate(engine, static, strategy, action, **overrides):
    rescale_overrides = {"action": action, "add_nodes": 1, **overrides}
    if action == "leave":
        rescale_overrides.setdefault("drain_node", 1)
    return run_scenario(Scenario(
        rescale_at=static.sim_seconds * 0.35,
        migration_strategy=strategy,
        rescale_overrides=rescale_overrides,
        sanitize=True,
        **base(engine),
    ))


class TestSlashOracle:
    @pytest.mark.parametrize("strategy", ["all-at-once", "fluid"])
    @pytest.mark.parametrize("action", ["join", "leave", "rebalance"])
    def test_migrated_equals_static(self, static_slash, strategy, action):
        migrated = migrate("slash", static_slash, strategy, action)
        diff = diff_results(static_slash, migrated)
        assert diff.ok, diff.describe()
        info = migrated.extra["elastic"]
        assert info["strategy"] == strategy
        if action != "rebalance":  # identity map: rebalance may be a no-op
            assert info["moves_completed"] >= 1
            if strategy == "all-at-once":
                # Fluid's spread-out rounds can land the handoff after
                # the last window fired (store already drained) at this
                # scale; the bulk handoff always carries live state.
                assert info["moved_bytes"] > 0
        checks = migrated.extra["sanitizer_checks"]
        assert checks["ownership-exactness"] > 0

    def test_migration_window_is_observable(self, static_slash):
        """trigger_events timestamps window fires, so the harness can
        slice migration-window latency out of the steady state."""
        migrated = migrate("slash", static_slash, "fluid", "join")
        events = migrated.extra["trigger_events"]
        assert events
        started = migrated.extra["elastic"]["started_at_s"]
        assert any(t >= started for t, _lag in events)
        assert static_slash.extra["trigger_events"]


class TestExchangeOracle:
    @pytest.mark.parametrize("strategy", ["all-at-once", "fluid"])
    def test_uppar_join_equals_static(self, static_uppar, strategy):
        migrated = migrate("uppar", static_uppar, strategy, "join")
        diff = diff_results(static_uppar, migrated)
        assert diff.ok, diff.describe()
        info = migrated.extra["elastic"]
        assert info["rounds"] >= 1
        assert migrated.extra["sanitizer_checks"]["ownership-exactness"] > 0

    @pytest.mark.parametrize("strategy", ["all-at-once", "fluid"])
    def test_uppar_report_counts_moves(self, static_uppar, strategy):
        info = migrate("uppar", static_uppar, strategy, "join").extra["elastic"]
        assert info["moves_completed"] == sum(
            event["buckets"] for event in info["events"]
        ) > 0
        assert info["moves_rolled_back"] == 0

    def test_uppar_leave_equals_static(self, static_uppar):
        migrated = migrate("uppar", static_uppar, "fluid", "leave")
        diff = diff_results(static_uppar, migrated)
        assert diff.ok, diff.describe()
