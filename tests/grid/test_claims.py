"""Paper claims: data on a figure's grid, checked by one function.

Nothing here simulates at paper size (the CI ``paper-claims`` job does):
the evaluation is driven with hand-built rows, and the registry and the
committed ``EXPERIMENTS.md`` are compared as declarations.
"""

import pathlib
import re

import pytest

from repro.common.errors import ConfigError
from repro.grid import GRIDS, Claim, SweepGrid, check_claims
from repro.grid.spec import VERDICTS, verdict
from repro.harness.cli import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _ratio_claim(documented="✔", reason=""):
    """'b is about twice a': shape b > a, magnitude 1.5 <= b/a <= 2.5."""
    def check(rows):
        value = {row["who"]: row["value"] for row in rows}
        ratio = value["b"] / value["a"]
        return verdict(ratio > 1, 1.5 <= ratio <= 2.5), f"b/a = {ratio:.1f}"
    return Claim("b is about twice a", check, documented, reason)


def _grid(*claims):
    return SweepGrid(
        name="toy", description="toy grid", axes=(("who", ("a", "b")),),
        cell=None, report=None, claims=claims,
    )


def _rows(a, b):
    return [{"who": "a", "value": a}, {"who": "b", "value": b}]


class TestCheckClaims:
    @pytest.mark.parametrize("a,b,expected", [
        (1.0, 2.0, "✔"),   # shape and magnitude
        (1.0, 9.0, "~"),   # same direction, different magnitude
        (2.0, 1.0, "✘"),   # deviation
    ])
    def test_each_verdict_is_reachable(self, a, b, expected):
        table, unexpected = check_claims(_grid(_ratio_claim()), _rows(a, b))
        assert table.splitlines()[:2] == [
            "| Claim (paper) | Measured | Verdict |", "|---|---|---|",
        ]
        assert f"| b is about twice a | b/a = {b / a:.1f} | {expected}" in table
        assert bool(unexpected) == (expected != "✔")

    def test_documented_verdict_is_the_expected_one_with_its_reason(self):
        claim = _ratio_claim("~", "our b is heavier")
        table, unexpected = check_claims(_grid(claim), _rows(1.0, 9.0))
        assert unexpected == []
        assert table.endswith("| ~ (our b is heavier) |")

    def test_an_improvement_is_as_unexpected_as_a_regression(self):
        claim = _ratio_claim("~", "our b is heavier")
        table, unexpected = check_claims(_grid(claim), _rows(1.0, 2.0))
        assert unexpected == [
            "toy: b is about twice a computed ✔, documented ~"
        ]
        assert table.endswith("| ✔ (documented ~) |")

    def test_absent_rows_are_an_error_not_a_silent_pass(self):
        with pytest.raises(ConfigError, match="needs a row the run did not "
                                              "produce: KeyError"):
            check_claims(_grid(_ratio_claim()), _rows(1.0, 2.0)[:1])

    def test_a_figure_check_looks_its_points_up_by_declared_name(self):
        """The real checks index rows by the grid's own axis values, so a
        figure whose rows are missing cannot pass by iterating nothing."""
        with pytest.raises(ConfigError, match="fig6a-c"):
            check_claims(GRIDS["fig6a-c"], [])


class TestClaimDeclaration:
    def test_unknown_documented_verdict_rejected(self):
        with pytest.raises(ConfigError, match="documented verdict"):
            Claim("x", lambda rows: ("✔", ""), "ok")

    @pytest.mark.parametrize("documented", ["~", "✘"])
    def test_a_deviation_needs_its_reason(self, documented):
        with pytest.raises(ConfigError, match="without a reason"):
            Claim("x", lambda rows: ("✔", ""), documented)

    def test_every_paper_figure_declares_its_claims(self):
        for name in EXPERIMENTS:
            claims = GRIDS[name].claims
            assert claims, f"{name} declares no claim"
            for claim in claims:
                assert claim.paper and "|" not in claim.paper + claim.reason
                assert claim.documented in VERDICTS
                assert claim.documented == "✔" or claim.reason.strip()


def test_committed_experiments_md_agrees_with_the_registry():
    """Same figures in the same order, same claim texts and documented
    verdicts — without simulating (the measured column is CI's to hold)."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    sections = re.split(r"^## ", text, flags=re.MULTILINE)[1:]
    figures = {}
    for section in sections:
        header, _, body = section.partition("\n")
        match = re.search(r"\(`python -m repro run ([\w-]+)`\)$", header)
        if match:
            figures[match.group(1)] = (header, [
                line.strip("| ").split(" | ")
                for line in body.splitlines()
                if line.startswith("| ") and not line.startswith("| Claim")
            ])
    assert list(figures) == list(EXPERIMENTS)
    for name, (header, table) in figures.items():
        grid = GRIDS[name]
        assert header.startswith(f"{name} — {grid.description} ")
        assert [row[0] for row in table] == [c.paper for c in grid.claims]
        for row, claim in zip(table, grid.claims):
            expected = claim.documented + (
                f" ({claim.reason})" if claim.reason else ""
            )
            assert row[2] == expected, f"{name}: {claim.paper}"
