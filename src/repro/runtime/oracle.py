"""One result differ for every comparison path in the repo.

The acceptance suites, the sanitizer's differential oracle, and the
chaos zero-lost-results check all compare results through here:
:func:`diff_aggregates` for the raw key-level comparison and
:func:`diff_results` for whole :class:`~repro.core.engine.RunResult`
envelopes (aggregation *or* join queries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def diff_aggregates(expected: dict, actual: dict) -> tuple[list, list, list]:
    """``(missing, extra, mismatched)`` keys between two result sets.

    Integer aggregates (YSB counts) must match exactly; float aggregates
    tolerate ULP-level drift, because recovery replays merges in a
    different order and float addition is not associative.
    """
    missing = [key for key in expected if key not in actual]
    extra = [key for key in actual if key not in expected]
    mismatched = []
    for key, want in expected.items():
        if key not in actual:
            continue
        got = actual[key]
        if isinstance(want, float) or isinstance(got, float):
            ok = math.isclose(want, got, rel_tol=1e-9, abs_tol=1e-12)
        else:
            ok = want == got
        if not ok:
            mismatched.append(key)
    return missing, extra, mismatched


@dataclass
class ResultDiff:
    """The outcome of comparing one run's output against another's."""

    #: Which output the comparison inspected: "aggregates" or "join_pairs".
    kind: str
    missing: list = field(default_factory=list)
    extra: list = field(default_factory=list)
    mismatched: list = field(default_factory=list)
    expected_pairs: int = 0
    got_pairs: int = 0
    pairs_equal: bool = True

    @property
    def ok(self) -> bool:
        if self.kind == "join_pairs":
            return self.pairs_equal
        return not (self.missing or self.extra or self.mismatched)

    def describe(self) -> str:
        """A one-line human summary of the divergence (empty when ok)."""
        if self.ok:
            return ""
        if self.kind == "join_pairs":
            return (
                f"join outputs differ — expected {self.expected_pairs} "
                f"pairs, got {self.got_pairs}"
            )
        examples = (self.missing + self.extra + self.mismatched)[:3]
        return (
            f"aggregates differ — {len(self.missing)} missing, "
            f"{len(self.extra)} extra, {len(self.mismatched)} mismatched "
            f"(e.g. {examples})"
        )


def diff_results(expected, actual) -> ResultDiff:
    """Compare two result envelopes (RunResult / ReferenceOutput).

    Aggregation queries compare the ``(window, key) → value`` dict;
    join queries compare the canonically sorted pair lists.
    """
    if expected.aggregates:
        missing, extra, mismatched = diff_aggregates(
            expected.aggregates, actual.aggregates
        )
        return ResultDiff(
            kind="aggregates",
            missing=missing,
            extra=extra,
            mismatched=mismatched,
        )
    want = expected.sorted_join_pairs()
    got = actual.sorted_join_pairs()
    return ResultDiff(
        kind="join_pairs",
        expected_pairs=len(want),
        got_pairs=len(got),
        pairs_equal=want == got,
    )
