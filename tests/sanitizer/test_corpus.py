"""The replay-line corpus: known-red cases and graduated regressions.

``corpus/known_red.jsonl`` holds one materialised ``Scenario`` replay line
per plane combination that is wrong at HEAD and that the sampler
therefore does not draw, with the failure signature it shows.  Each row
is ``xfail(strict=True)`` on "the check passes": the change that fixes a
row turns it into an XPASS, which fails the suite until the row is moved
to ``corpus/regressions.jsonl`` — same loader, must pass — and the axis
value is added to the sampler's table.  docs/testing.md ("Differential
oracle") has the scan the rows come from.
"""

import functools
import json
import pathlib

import pytest

from repro.runtime import Scenario
from repro.runtime.scenario import check_overrides
from repro.sanitizer.scenarios import check_scenario

CORPUS = pathlib.Path(__file__).parent / "corpus"


def rows(filename):
    lines = (CORPUS / filename).read_text().splitlines()
    return [
        pytest.param(row, id=row["name"]) for row in map(json.loads, lines)
    ]


@functools.lru_cache(maxsize=None)
def outcome_of(line):
    return check_scenario(Scenario.from_json(line))


def checked(row):
    return outcome_of(json.dumps(row["scenario"], sort_keys=True))


def test_every_corpus_line_is_a_current_scenario():
    """A replay line naming a field or override key the planes no longer
    have would fail for that reason alone, not for the one it records."""
    files = sorted(CORPUS.glob("*.jsonl"))
    assert files
    for path in files:
        for row in map(json.loads, path.read_text().splitlines()):
            scenario = Scenario.from_json(json.dumps(row["scenario"]))
            check_overrides(scenario)


@pytest.mark.parametrize("row", rows("known_red.jsonl"))
@pytest.mark.xfail(strict=True, reason="known red: see docs/testing.md")
def test_known_red_row_is_fixed(row):
    assert checked(row).ok


@pytest.mark.parametrize("row", rows("known_red.jsonl"))
def test_known_red_row_shows_its_recorded_signature(row):
    """Still red means red the *same* way; a different failure is news."""
    outcome = checked(row)
    assert outcome.ok or any(row["expect"] in f for f in outcome.failures), (
        outcome.failures
    )


@pytest.mark.parametrize("row", rows("regressions.jsonl"))
def test_regression_row_passes(row):
    outcome = checked(row)
    assert outcome.ok, outcome.failures
    assert sum(outcome.checks.values()) > 0
