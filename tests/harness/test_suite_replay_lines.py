"""A failing ``chaos`` / ``elastic`` run names the one line that replays it.

The suites build each treatment as a ``runtime.Scenario``; when an
acceptance check fails, the error they raise ends in the
``python -m repro sanitize --replay '...'`` command for that treatment,
so the failure can be re-checked and shrunk without the suite.
"""

import re

import pytest

from repro.common.errors import FaultError, StateError
from repro.faults.plan import FaultKind
from repro.harness.suites import run_chaos, run_elastic
from repro.runtime import Scenario
from repro.runtime.oracle import ResultDiff


def replayed(message: str) -> Scenario:
    (line,) = re.findall(r"python -m repro sanitize --replay '(.*)'", message)
    return Scenario.from_json(line)


def test_chaos_lost_results_names_the_faulted_treatment(monkeypatch):
    monkeypatch.setattr(
        "repro.harness.suites.diff_aggregates",
        lambda expected, actual: ([(0, 0)], [], []),
    )
    with pytest.raises(FaultError, match="lost results") as caught:
        run_chaos(
            fault="duplicate-delta", records_per_thread=400,
            strategy="epoch-buddy", verify_determinism=False,
        )
    case = replayed(str(caught.value))
    assert (case.engine, case.workload, case.nodes) == ("slash", "ysb", 3)
    assert case.recovery_strategy == "epoch-buddy"
    assert [e.kind for e in case.fault_plan] == [FaultKind.DUPLICATE_DELTA]
    assert set(case.fault_overrides) >= {"detect_s", "rto_s"}


def test_elastic_divergence_names_the_migrated_treatment(monkeypatch):
    monkeypatch.setattr(
        "repro.runtime.oracle.diff_results",
        lambda expected, actual: ResultDiff("aggregates", missing=[(0, 0)]),
    )
    with pytest.raises(StateError, match="elastic oracle failed") as caught:
        run_elastic(records_per_thread=300, strategy="fluid")
    case = replayed(str(caught.value))
    assert case.is_elastic and case.sanitize
    assert case.migration_strategy == "fluid"
    assert case.rescale_overrides == {"action": "join", "add_nodes": 1}
